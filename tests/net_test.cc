// Unit tests for the simulated network and RPC layer.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.h"
#include "net/rpc.h"
#include "sim/future.h"
#include "sim/when_all.h"

namespace faastcc::net {
namespace {

struct Echo {
  uint64_t x = 0;
  template <typename W>
  void encode(W& w) const { w.put_u64(x); }
  static Echo decode(BufReader& r) { return {r.get_u64()}; }
};

NetworkParams no_jitter() {
  NetworkParams p;
  p.jitter = 0;
  return p;
}

// ---------------------------------------------------------------------------
// Network
// ---------------------------------------------------------------------------

TEST(Network, DeliversAtBaseLatencyPlusSerialization) {
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  SimTime delivered = -1;
  net.register_endpoint(2, [&](Message) { delivered = loop.now(); });
  Message m;
  m.from = 1;
  m.to = 2;
  net.send(std::move(m));
  loop.run();
  // 32-byte header over 3125 B/us adds nothing measurable; base 75us.
  EXPECT_EQ(delivered, 75);
}

TEST(Network, LargeMessagesTakeBandwidthTime) {
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  SimTime delivered = -1;
  net.register_endpoint(2, [&](Message) { delivered = loop.now(); });
  Message m;
  m.from = 1;
  m.to = 2;
  m.payload.assign(3125 * 100, 0);  // 100 us of serialization at 25 Gbps
  net.send(std::move(m));
  loop.run();
  EXPECT_EQ(delivered, 175);
}

TEST(Network, ColocatedEndpointsUseIpcLatency) {
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  SimTime delivered = -1;
  net.register_endpoint(2, [&](Message) { delivered = loop.now(); });
  net.colocate(1, 2);
  Message m;
  m.from = 1;
  m.to = 2;
  net.send(std::move(m));
  loop.run();
  EXPECT_EQ(delivered, 5);
}

TEST(Network, JitterStaysWithinBound) {
  sim::EventLoop loop;
  NetworkParams p;
  p.jitter = 20;
  Network net(loop, p, Rng(99));
  std::vector<SimTime> deliveries;
  net.register_endpoint(2, [&](Message) { deliveries.push_back(loop.now()); });
  SimTime sent_at = 0;
  for (int i = 0; i < 200; ++i) {
    loop.schedule_at(i * 1000, [&net] {
      Message m;
      m.from = 1;
      m.to = 2;
      net.send(std::move(m));
    });
    (void)sent_at;
  }
  loop.run();
  ASSERT_EQ(deliveries.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    const SimTime delay = deliveries[i] - i * 1000;
    EXPECT_GE(delay, 75);
    EXPECT_LT(delay, 96);
  }
}

TEST(Network, DropsToUnregisteredAddressAndCounts) {
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  Message m;
  m.from = 1;
  m.to = 77;
  net.send(std::move(m));
  loop.run();
  EXPECT_EQ(net.messages_dropped(), 1u);
}

TEST(Network, AccountsMessagesAndBytes) {
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  net.register_endpoint(2, [](Message) {});
  Message m;
  m.from = 1;
  m.to = 2;
  m.payload.assign(100, 0);
  net.send(std::move(m));
  loop.run();
  EXPECT_EQ(net.messages_sent(), 1u);
  EXPECT_EQ(net.bytes_sent(), 132u);  // payload + header
}

// ---------------------------------------------------------------------------
// RPC
// ---------------------------------------------------------------------------

TEST(Rpc, RoundTripTypedCall) {
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  RpcNode server(net, 1), client(net, 2);
  server.handle(7, [](Buffer b, Address) -> sim::Task<Buffer> {
    auto e = decode_message<Echo>(b);
    e.x *= 2;
    co_return encode_message(e);
  });
  uint64_t got = 0;
  sim::spawn([](RpcNode& c, uint64_t& out) -> sim::Task<void> {
    Echo e = co_await c.call<Echo>(1, 7, Echo{21});
    out = e.x;
  }(client, got));
  loop.run();
  EXPECT_EQ(got, 42u);
}

TEST(Rpc, RequestOutlivesCallerScope) {
  // Regression test for the lazy-task lifetime bug: requests built in a
  // loop and awaited later via when_all must not dangle.
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  RpcNode server(net, 1), client(net, 2);
  server.handle(7, [](Buffer b, Address) -> sim::Task<Buffer> {
    co_return b;  // echo
  });
  std::vector<uint64_t> got;
  sim::spawn([](RpcNode& c, std::vector<uint64_t>& out) -> sim::Task<void> {
    std::vector<sim::Task<Echo>> calls;
    for (uint64_t i = 0; i < 10; ++i) {
      Echo e{i * 100};  // dies before the await below
      calls.push_back(c.call<Echo>(1, 7, e));
    }
    auto results = co_await sim::when_all(c.loop(), std::move(calls));
    for (const Echo& e : results) out.push_back(e.x);
  }(client, got));
  loop.run();
  ASSERT_EQ(got.size(), 10u);
  for (uint64_t i = 0; i < 10; ++i) EXPECT_EQ(got[i], i * 100);
}

TEST(Rpc, ConcurrentCallsMatchResponsesById) {
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  RpcNode server(net, 1), client(net, 2);
  // Handler delays inversely to the value: responses return out of order.
  server.handle(7, [&loop](Buffer b, Address) -> sim::Task<Buffer> {
    auto e = decode_message<Echo>(b);
    co_await sim::sleep_for(loop, 1000 - e.x);
    co_return encode_message(e);
  });
  std::vector<uint64_t> got;
  sim::spawn([](RpcNode& c, std::vector<uint64_t>& out) -> sim::Task<void> {
    std::vector<sim::Task<Echo>> calls;
    for (uint64_t i = 0; i < 5; ++i) calls.push_back(c.call<Echo>(1, 7, Echo{i}));
    auto results = co_await sim::when_all(c.loop(), std::move(calls));
    for (const Echo& e : results) out.push_back(e.x);
  }(client, got));
  loop.run();
  EXPECT_EQ(got, (std::vector<uint64_t>{0, 1, 2, 3, 4}));
}

TEST(Rpc, OneWayMessagesReachHandler) {
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  RpcNode server(net, 1), client(net, 2);
  uint64_t got = 0;
  server.handle_oneway(9, [&](Buffer b, Address from) {
    got = decode_message<Echo>(b).x;
    EXPECT_EQ(from, 2u);
  });
  client.send(1, 9, Echo{13});
  loop.run();
  EXPECT_EQ(got, 13u);
}

TEST(Rpc, SizedCallReportsWireBytes) {
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  RpcNode server(net, 1), client(net, 2);
  server.handle(7, [](Buffer, Address) -> sim::Task<Buffer> {
    Buffer b(100, 0);
    co_return b;
  });
  size_t req_bytes = 0, resp_bytes = 0;
  sim::spawn([](RpcNode& c, size_t& rq, size_t& rs) -> sim::Task<void> {
    auto r = co_await c.call_raw_sized(1, 7, Buffer(50, 0));
    rq = r.request_wire_bytes;
    rs = r.response_wire_bytes;
  }(client, req_bytes, resp_bytes));
  loop.run();
  EXPECT_EQ(req_bytes, 50u + Message::kHeaderBytes);
  EXPECT_EQ(resp_bytes, 100u + Message::kHeaderBytes);
}

TEST(Rpc, HandlerRunsPerRequestConcurrently) {
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  RpcNode server(net, 1), client(net, 2);
  server.handle(7, [&loop](Buffer b, Address) -> sim::Task<Buffer> {
    co_await sim::sleep_for(loop, 1000);
    co_return b;
  });
  SimTime done_at = -1;
  sim::spawn([](RpcNode& c, SimTime& out) -> sim::Task<void> {
    std::vector<sim::Task<Echo>> calls;
    for (uint64_t i = 0; i < 4; ++i) calls.push_back(c.call<Echo>(1, 7, Echo{i}));
    co_await sim::when_all(c.loop(), std::move(calls));
    out = c.now();
  }(client, done_at));
  loop.run();
  // All four handlers overlap: ~1 RTT + 1000us service, not 4x.
  EXPECT_LT(done_at, 1400);
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

TEST(FaultInjection, LossDropsFabricMessages) {
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  FaultParams fp;
  fp.loss_prob = 1.0;
  net.set_faults(fp, Rng(7));
  int delivered = 0;
  net.register_endpoint(2, [&](Message) { ++delivered; });
  for (int i = 0; i < 10; ++i) {
    Message m;
    m.from = 1;
    m.to = 2;
    net.send(std::move(m));
  }
  loop.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.faults_lost(), 10u);
}

TEST(FaultInjection, DuplicationDeliversTwice) {
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  FaultParams fp;
  fp.dup_prob = 1.0;
  net.set_faults(fp, Rng(7));
  int delivered = 0;
  net.register_endpoint(2, [&](Message) { ++delivered; });
  Message m;
  m.from = 1;
  m.to = 2;
  net.send(std::move(m));
  loop.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.faults_duplicated(), 1u);
}

TEST(FaultInjection, DelaySpikeAddsLatency) {
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  FaultParams fp;
  fp.delay_spike_prob = 1.0;
  fp.delay_spike = milliseconds(10);
  net.set_faults(fp, Rng(7));
  SimTime delivered = -1;
  net.register_endpoint(2, [&](Message) { delivered = loop.now(); });
  Message m;
  m.from = 1;
  m.to = 2;
  net.send(std::move(m));
  loop.run();
  EXPECT_EQ(delivered, 75 + milliseconds(10));
  EXPECT_EQ(net.faults_delay_spikes(), 1u);
}

TEST(FaultInjection, CrashWindowSeversEndpointBothWays) {
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  FaultParams fp;
  fp.crashes.push_back(CrashWindow{2, 0, milliseconds(1)});
  net.set_faults(fp, Rng(7));
  int at_2 = 0, at_3 = 0;
  net.register_endpoint(2, [&](Message) { ++at_2; });
  net.register_endpoint(3, [&](Message) { ++at_3; });
  // Inbound to the crashed endpoint during the window: dropped at delivery.
  loop.schedule_at(0, [&] {
    Message m;
    m.from = 3;
    m.to = 2;
    net.send(std::move(m));
  });
  // Outbound from the crashed endpoint during the window: dropped at send.
  loop.schedule_at(100, [&] {
    Message m;
    m.from = 2;
    m.to = 3;
    net.send(std::move(m));
  });
  // After the window the endpoint resumes.
  loop.schedule_at(milliseconds(2), [&] {
    Message m;
    m.from = 3;
    m.to = 2;
    net.send(std::move(m));
  });
  loop.run();
  EXPECT_EQ(at_2, 1);
  EXPECT_EQ(at_3, 0);
  EXPECT_EQ(net.faults_crash_dropped(), 2u);
}

TEST(FaultInjection, MidRunCrashWindowTakesEffectWithoutSetFaults) {
  // Regression: add_crash_window on a network whose fault layer was never
  // armed used to append a dead window — faults_enabled_ stayed false, so
  // send/deliver never consulted the crash schedule and the "crashed"
  // endpoint kept receiving.  The fix arms the layer, but must not touch
  // the default RPC timeout: a crash severs one endpoint, it does not opt
  // every call into timeouts.
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  int at_2 = 0;
  net.register_endpoint(2, [&](Message) { ++at_2; });
  // Window added mid-run, deterministically at 1 ms.
  loop.schedule_at(milliseconds(1), [&] {
    net.add_crash_window(CrashWindow{2, milliseconds(1), milliseconds(2)});
  });
  const auto send_to_2 = [&] {
    Message m;
    m.from = 3;
    m.to = 2;
    net.send(std::move(m));
  };
  loop.schedule_at(0, send_to_2);                    // before: delivered
  loop.schedule_at(milliseconds(1) + 100, send_to_2);  // inside: dropped
  loop.schedule_at(milliseconds(3), send_to_2);      // after: delivered
  loop.run();
  EXPECT_TRUE(net.faults_enabled());
  EXPECT_EQ(net.default_rpc_timeout(), 0);
  EXPECT_EQ(at_2, 2);
  EXPECT_EQ(net.faults_crash_dropped(), 1u);
}

TEST(FaultInjection, PerLinkLossOverrideIsDirectional) {
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  FaultParams fp;
  fp.loss_prob = 1.0;  // default: everything lost
  net.set_faults(fp, Rng(7));
  net.set_link_loss(1, 2, 0.0);  // except the 1 -> 2 direction
  int at_1 = 0, at_2 = 0;
  net.register_endpoint(1, [&](Message) { ++at_1; });
  net.register_endpoint(2, [&](Message) { ++at_2; });
  Message a;
  a.from = 1;
  a.to = 2;
  net.send(std::move(a));
  Message b;
  b.from = 2;
  b.to = 1;
  net.send(std::move(b));
  loop.run();
  EXPECT_EQ(at_2, 1);  // override cleared the loss
  EXPECT_EQ(at_1, 0);  // reverse direction still uses the default
}

TEST(FaultInjection, ColocatedLinksAreReliable) {
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  FaultParams fp;
  fp.loss_prob = 1.0;
  fp.dup_prob = 1.0;
  net.set_faults(fp, Rng(7));
  net.colocate(1, 2);
  int delivered = 0;
  net.register_endpoint(2, [&](Message) { ++delivered; });
  Message m;
  m.from = 1;
  m.to = 2;
  net.send(std::move(m));
  loop.run();
  // IPC is a same-node memory queue: exactly-once despite loss/dup knobs.
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(net.faults_lost(), 0u);
  EXPECT_EQ(net.faults_duplicated(), 0u);
}

// ---------------------------------------------------------------------------
// RPC timeouts and retries
// ---------------------------------------------------------------------------

TEST(Rpc, CallToUnregisteredAddressTimesOutInsteadOfHanging) {
  // Regression: a call to an address nobody registered used to leave the
  // caller suspended forever (the network counts the drop but nothing
  // resolves the pending promise).
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  RpcNode client(net, 2);
  bool completed = false;
  RpcStatus status = RpcStatus::kOk;
  sim::spawn([](RpcNode& c, bool& done, RpcStatus& st) -> sim::Task<void> {
    auto r = co_await c.call_raw_sized(77, 7, Buffer{}, milliseconds(25));
    st = r.status;
    done = true;
  }(client, completed, status));
  loop.run();
  EXPECT_TRUE(completed);
  EXPECT_EQ(status, RpcStatus::kTimeout);
  EXPECT_EQ(client.pending_calls(), 0u);
  EXPECT_EQ(net.rpc_timeouts(), 1u);
}

TEST(Rpc, DefaultTimeoutFromNetworkAppliesToFabricCalls) {
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  net.set_default_rpc_timeout(milliseconds(10));
  RpcNode client(net, 2);
  bool completed = false;
  SimTime done_at = -1;
  sim::spawn([](RpcNode& c, bool& done, SimTime& at) -> sim::Task<void> {
    auto r = co_await c.call_raw_sized(77, 7, Buffer{});
    EXPECT_FALSE(r.ok());
    done = true;
    at = c.now();
  }(client, completed, done_at));
  loop.run();
  EXPECT_TRUE(completed);
  EXPECT_EQ(done_at, milliseconds(10));
}

TEST(Rpc, ColocatedCallsNeverTimeOut) {
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  net.set_default_rpc_timeout(milliseconds(1));
  RpcNode server(net, 1), client(net, 2);
  net.colocate(1, 2);
  // The handler takes far longer than the default timeout.
  server.handle(7, [&loop](Buffer b, Address) -> sim::Task<Buffer> {
    co_await sim::sleep_for(loop, milliseconds(50));
    co_return b;
  });
  bool ok = false;
  sim::spawn([](RpcNode& c, bool& out) -> sim::Task<void> {
    auto r = co_await c.call_raw_sized(1, 7, Buffer{});
    out = r.ok();
  }(client, ok));
  loop.run();
  EXPECT_TRUE(ok);
}

TEST(Rpc, RetrySucceedsOnceLinkHeals) {
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  FaultParams fp;
  fp.loss_prob = 1.0;
  fp.rpc_timeout = milliseconds(5);
  net.set_faults(fp, Rng(7));
  RpcNode server(net, 1), client(net, 2);
  server.handle(7, [](Buffer b, Address) -> sim::Task<Buffer> {
    co_return b;  // echo
  });
  // The "outage" ends at t = 12 ms: both directions become reliable.
  loop.schedule_at(milliseconds(12), [&] {
    net.set_link_loss(1, 2, 0.0);
    net.set_link_loss(2, 1, 0.0);
  });
  bool ok = false;
  sim::spawn([](RpcNode& c, bool& out) -> sim::Task<void> {
    RetryPolicy policy;
    policy.max_attempts = 10;
    auto r = co_await c.call_raw_sized_retry(1, 7, Buffer{}, policy);
    out = r.ok();
  }(client, ok));
  loop.run();
  EXPECT_TRUE(ok);
  EXPECT_GT(net.rpc_timeouts(), 0u);
  EXPECT_GT(net.rpc_retries(), 0u);
  EXPECT_EQ(client.pending_calls(), 0u);
}

TEST(Rpc, RetryExhaustionReturnsTimeout) {
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  FaultParams fp;
  fp.loss_prob = 1.0;
  fp.rpc_timeout = milliseconds(2);
  net.set_faults(fp, Rng(7));
  RpcNode server(net, 1), client(net, 2);
  server.handle(7, [](Buffer b, Address) -> sim::Task<Buffer> {
    co_return b;
  });
  bool completed = false;
  bool ok = true;
  sim::spawn([](RpcNode& c, bool& done, bool& res) -> sim::Task<void> {
    RetryPolicy policy;
    policy.max_attempts = 3;
    auto r = co_await c.call_raw_retry(1, 7, Buffer{}, policy);
    res = r.has_value();
    done = true;
  }(client, completed, ok));
  loop.run();
  EXPECT_TRUE(completed);
  EXPECT_FALSE(ok);
  EXPECT_EQ(net.rpc_timeouts(), 3u);
  EXPECT_EQ(net.rpc_retries(), 2u);
}

TEST(Network, MessageAboveEveryEndpointIsDroppedAndCounted) {
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  int delivered = 0;
  net.register_endpoint(2, [&](Message) { ++delivered; });
  for (const Address to : {Address{3}, Address{100000}, Address{0xffffffffu}}) {
    Message m;
    m.from = 2;
    m.to = to;
    m.payload.assign(16, 1);
    net.send(std::move(m));
  }
  loop.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(net.messages_dropped(), 3u);
}

TEST(Network, ColocationIsPairwiseAndSymmetric) {
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  net.colocate(1, 2);
  net.colocate(2, 3);
  net.colocate(2, 1);  // repeating a pair changes nothing
  EXPECT_TRUE(net.is_local(1, 2));
  EXPECT_TRUE(net.is_local(2, 1));
  EXPECT_TRUE(net.is_local(2, 3));
  EXPECT_TRUE(net.is_local(3, 2));
  EXPECT_FALSE(net.is_local(1, 3));
  EXPECT_FALSE(net.is_local(3, 1));
  EXPECT_TRUE(net.is_local(7, 7));
  EXPECT_FALSE(net.is_local(7, 8));
  // Colocation alone registers no handler: a message to 3 is dropped.
  Message m;
  m.from = 1;
  m.to = 3;
  net.send(std::move(m));
  loop.run();
  EXPECT_EQ(net.messages_dropped(), 1u);
}

TEST(Network, QueuedDeliveriesAreFreedWithTheLoop) {
  // The network goes first, as in a cluster whose loop outlives it; the
  // loop's teardown must free the queued records without touching it.
  // Under AddressSanitizer a leaked record or payload, or a record that
  // reached back into the destroyed network, reports.
  auto loop = std::make_unique<sim::EventLoop>();
  auto net = std::make_unique<Network>(*loop, no_jitter(), Rng(1));
  int delivered = 0;
  net->register_endpoint(2, [&](Message) { ++delivered; });
  for (int i = 0; i < 100; ++i) {
    Message m;
    m.from = 1;
    m.to = 2;
    m.payload.assign(64, static_cast<uint8_t>(i));
    net->send(std::move(m));
  }
  EXPECT_EQ(loop->pending(), 100u);
  net.reset();
  loop.reset();
  EXPECT_EQ(delivered, 0);
}

TEST(Rpc, DuplicatedResponseAfterCompletionIsAnOrphan) {
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  FaultParams fp;
  fp.dup_prob = 1.0;  // every fabric message arrives twice
  net.set_faults(fp, Rng(7));
  RpcNode server(net, 1), client(net, 2);
  int served = 0;
  server.handle(7, [&](Buffer b, Address) -> sim::Task<Buffer> {
    ++served;
    co_return b;
  });
  int completed = 0;
  sim::spawn([](RpcNode& c, int& done) -> sim::Task<void> {
    Echo e = co_await c.call<Echo>(1, 7, Echo{42});
    EXPECT_EQ(e.x, 42u);
    ++done;
  }(client, completed));
  loop.run();
  // The duplicated request is served twice and each response is
  // duplicated: one of the four responses completes the call, the other
  // three find no pending call and are dropped as orphans.
  EXPECT_EQ(served, 2);
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(net.faults_duplicated(), 3u);
  EXPECT_EQ(client.pending_calls(), 0u);
  EXPECT_EQ(net.rpc_timeouts(), 0u);
}

TEST(Rpc, EveryRetryAttemptCarriesIdenticalRequestBytes) {
  sim::EventLoop loop;
  Network net(loop, no_jitter(), Rng(1));
  RpcNode server(net, 1), client(net, 2);
  std::vector<Buffer> seen;
  // Answers only long after every attempt has timed out.
  server.handle(7, [&](Buffer b, Address) -> sim::Task<Buffer> {
    seen.push_back(b);
    co_await sim::sleep_for(loop, seconds(1));
    co_return b;
  });
  Buffer request(300);
  for (size_t i = 0; i < request.size(); ++i) {
    request[i] = static_cast<uint8_t>(i * 7);
  }
  RpcNode::SizedResponse result;
  sim::spawn([](RpcNode& c, Buffer req,
                RpcNode::SizedResponse& out) -> sim::Task<void> {
    RetryPolicy policy;
    policy.max_attempts = 4;
    policy.timeout = milliseconds(2);
    out = co_await c.call_raw_sized_retry(1, 7, std::move(req), policy);
  }(client, request, result));
  loop.run();
  EXPECT_EQ(result.status, RpcStatus::kTimeout);
  EXPECT_EQ(result.attempts, 4u);
  ASSERT_EQ(seen.size(), 4u);
  for (const Buffer& b : seen) EXPECT_EQ(b, request);
  EXPECT_EQ(client.pending_calls(), 0u);

  // No timeout: the single attempt sends the request itself.
  seen.clear();
  sim::spawn([](RpcNode& c, Buffer req,
                RpcNode::SizedResponse& out) -> sim::Task<void> {
    RetryPolicy policy;
    policy.timeout = 0;
    out = co_await c.call_raw_sized_retry(1, 7, std::move(req), policy);
  }(client, request, result));
  loop.run();
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.attempts, 1u);
  EXPECT_EQ(result.payload, request);
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], request);
}

}  // namespace
}  // namespace faastcc::net
