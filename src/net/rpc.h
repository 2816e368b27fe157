// Request/response RPC over the simulated network.
//
// Each simulated process owns an RpcNode.  Handlers are coroutines, so a
// storage partition can await internal work while serving a request.  Typed
// wrappers (`call<Req, Resp>`) encode/decode with the common binary codec so
// every RPC's wire size is exact.
//
// Calls over the fabric can time out (see FaultParams::rpc_timeout): the
// pending promise is resolved with RpcStatus::kTimeout so the caller's
// coroutine never hangs on a lost message.  `call_with_retry` layers
// deterministic capped exponential backoff on top.  Colocated (IPC) calls
// resolve the default timeout to "never" — same-node queues don't lose
// messages, and cache handlers can legitimately take long under faults.
//
// Dispatch is flat: handlers sit in method-indexed tables (method ids are
// below 100) and the few calls a node has in flight in a small vector, so
// with the pooled frames and promise states (sim/frame_pool.h) an RPC
// makes no global allocation beyond its payload buffers.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/serialize.h"
#include "net/network.h"
#include "sim/future.h"
#include "sim/task.h"

namespace faastcc::net {

enum class RpcStatus : uint8_t {
  kOk = 0,
  kTimeout = 1,
  // The callee NACKed the request because it carried a different routing
  // epoch than the callee's table (see RpcNode::gate_on_epoch).  Not
  // retried by the backoff wrappers: the caller must refresh its table
  // first, re-batching may route the request somewhere else entirely.
  kWrongEpoch = 2,
};

// Sentinel: resolve the timeout from the network default (0 for colocated
// peers, Network::default_rpc_timeout() otherwise).
inline constexpr Duration kUseDefaultTimeout = -1;

// Deterministic capped exponential backoff: attempt n waits
// min(initial_backoff * 2^(n-1), max_backoff).  No randomness — retry
// schedules must be reproducible per seed.
struct RetryPolicy {
  int max_attempts = 5;
  Duration initial_backoff = milliseconds(1);
  Duration max_backoff = milliseconds(16);
  Duration timeout = kUseDefaultTimeout;
};

// Shared retry profiles.  Call sites used to restate these constants
// per-call; keeping them here makes "how hard do we try" a single
// decision per traffic class.
//
// Commit-grade traffic (prepare/commit/abort, elastic handoff RPCs): a
// commit abandoned halfway is expensive for everyone upstream, so retry
// well past any plausible loss burst.  12 attempts with 1..64 ms capped
// backoff rides out ~350 ms of unreachability, comfortably under the
// prepare TTL (5 s default).
inline constexpr RetryPolicy commit_retry_policy() {
  return RetryPolicy{12, milliseconds(1), milliseconds(64),
                     kUseDefaultTimeout};
}
// Routing refreshes after a wrong-epoch NACK: the table fetch is cheap and
// the new table usually lands on the first try; a short profile keeps a
// stale client from hammering the topology service.
inline constexpr RetryPolicy routing_refresh_policy() {
  return RetryPolicy{4, milliseconds(1), milliseconds(8), kUseDefaultTimeout};
}

class RpcNode {
 public:
  // Coroutine handler: receives the request payload and the caller address,
  // returns the response payload.
  using RequestHandler =
      std::function<sim::Task<Buffer>(Buffer, Address)>;
  // Fire-and-forget handler for one-way messages (pub/sub pushes, gossip).
  using OneWayHandler = std::function<void(Buffer, Address)>;

  RpcNode(Network& network, Address address);
  ~RpcNode() = default;
  RpcNode(const RpcNode&) = delete;
  RpcNode& operator=(const RpcNode&) = delete;

  Address address() const { return address_; }
  Network& network() { return network_; }
  sim::EventLoop& loop() { return network_.loop(); }
  SimTime now() const { return network_.now(); }

  void handle(MethodId method, RequestHandler handler);
  void handle_oneway(MethodId method, OneWayHandler handler);

  static constexpr Duration kUseDefaultTimeout = net::kUseDefaultTimeout;
  using RetryPolicy = net::RetryPolicy;

  // Raw call; completes when the response arrives or the timeout fires
  // (check SizedResponse::status — the payload is empty on timeout).
  sim::Task<Buffer> call_raw(Address to, MethodId method, Buffer request,
                             obs::TraceContext trace = {});

  // Pooled encode: the buffer comes from the loop's shared free list and
  // should eventually be handed back via recycle() by whoever drains it.
  template <typename M>
  Buffer encode(const M& m) {
    return encode_message(m, loop().buffer_pool());
  }
  // Returns an exhausted payload buffer to the free list (keeps capacity).
  void recycle(Buffer&& b) { loop().buffer_pool().release(std::move(b)); }

  // Typed call.  `req` is taken by value: tasks are lazy, so the request
  // must live in the coroutine frame — callers routinely build several
  // calls and only await them later via when_all.
  template <typename Resp, typename Req>
  sim::Task<Resp> call(Address to, MethodId method, Req req,
                       obs::TraceContext trace = {}) {
    Buffer resp = co_await call_raw(to, method, encode(req), trace);
    Resp out = decode_message<Resp>(resp);
    recycle(std::move(resp));
    co_return out;
  }

  // One-way typed send.
  template <typename M>
  void send(Address to, MethodId method, const M& msg,
            obs::TraceContext trace = {}) {
    send_raw(to, method, encode(msg), trace);
  }
  void send_raw(Address to, MethodId method, Buffer payload,
                obs::TraceContext trace = {});

  // Bytes of the last response received by call_raw on this node; callers
  // that need per-request accounting should use call_raw_sized instead.
  struct SizedResponse {
    Buffer payload;
    size_t request_wire_bytes = 0;
    size_t response_wire_bytes = 0;
    RpcStatus status = RpcStatus::kOk;
    // Attempts consumed when the call went through a retry wrapper (1 for a
    // first-try success); plain call_raw_sized leaves it at 1.
    uint32_t attempts = 1;
    // Routing epoch the responder stamped on the frame (0: responder does
    // not participate).  On kWrongEpoch this is the epoch the caller must
    // catch up to (or that the callee itself is behind at).
    uint32_t peer_epoch = 0;

    bool ok() const { return status == RpcStatus::kOk; }
  };
  sim::Task<SizedResponse> call_raw_sized(Address to, MethodId method,
                                          Buffer request,
                                          Duration timeout = kUseDefaultTimeout,
                                          obs::TraceContext trace = {});

  // Retries on timeout; the final attempt's response (possibly still a
  // timeout) is returned.  With timeouts resolved to 0 (faults off) the
  // first attempt blocks until the response arrives, so call sites can use
  // the retry wrappers unconditionally without changing fault-free runs.
  // An attempt that no re-send can follow (no timeout, or the last one)
  // sends `request` itself; the others send copies.
  sim::Task<SizedResponse> call_raw_sized_retry(Address to, MethodId method,
                                                Buffer request,
                                                RetryPolicy policy = {},
                                                obs::TraceContext trace = {});
  sim::Task<std::optional<Buffer>> call_raw_retry(Address to, MethodId method,
                                                  Buffer request,
                                                  RetryPolicy policy = {},
                                                  obs::TraceContext trace = {});

  // Typed retrying call; nullopt when every attempt timed out.
  template <typename Resp, typename Req>
  sim::Task<std::optional<Resp>> call_with_retry(Address to, MethodId method,
                                                 Req req,
                                                 RetryPolicy policy = {},
                                                 obs::TraceContext trace = {}) {
    SizedResponse r = co_await call_raw_sized_retry(
        to, method, encode(req), policy, trace);
    if (!r.ok()) co_return std::nullopt;
    Resp out = decode_message<Resp>(r.payload);
    recycle(std::move(r.payload));
    co_return out;
  }

  // ---- Epoch-versioned routing --------------------------------------------
  // The node's current routing epoch is stamped on every outbound frame
  // (0 until set: non-participants are never NACKed).
  void set_routing_epoch(uint32_t epoch) { routing_epoch_ = epoch; }
  uint32_t routing_epoch() const { return routing_epoch_; }
  // Registers `method` as epoch-gated: requests whose stamped epoch
  // disagrees with ours (both nonzero) are NACKed with kWrongEpoch before
  // the handler runs, so a handler for a gated method can assume the
  // caller routed with our table.
  void gate_on_epoch(MethodId method);
  // Invoked when a gated request arrives stamped with a NEWER epoch than
  // ours: we are the stale side and should pull a fresh table.  The NACK is
  // still sent (the gate never serves across epochs); the callback is how a
  // node that missed the broadcast learns to catch up.
  void on_stale_epoch(std::function<void()> cb) { stale_epoch_cb_ = std::move(cb); }

  // Trace context of the message currently being dispatched.  Valid only
  // until the handler's first suspension: handlers are started
  // synchronously at delivery (oneway handlers directly, coroutine
  // handlers via spawn, which runs the body up to its first co_await), so
  // capture this at the top of the handler.
  const obs::TraceContext& inbound_trace() const { return inbound_trace_; }

  // Outstanding calls (tests: verifies timeouts don't leak pending state).
  size_t pending_calls() const { return pending_.size(); }

 private:
  struct Pending {
    uint64_t id;
    sim::Promise<SizedResponse> promise;
    size_t request_wire_bytes;
  };

  void on_message(Message m);
  void on_call_timeout(uint64_t id);
  sim::Task<void> run_handler(RequestHandler& handler, Message m);
  Duration resolve_timeout(Address to, Duration timeout) const;
  // Removes and returns call `id`; nullopt when it is no longer pending
  // (answered, timed out, or a duplicate response).
  std::optional<Pending> take_pending(uint64_t id);

  Network& network_;
  Address address_;
  obs::TraceContext inbound_trace_;
  uint64_t next_request_id_ = 1;
  uint32_t routing_epoch_ = 0;
  std::vector<MethodId> epoch_gated_;
  std::function<void()> stale_epoch_cb_;
  // Indexed by method; an empty function = no handler.  Deques, so growing
  // a table never moves a handler whose coroutine is suspended.
  std::deque<RequestHandler> handlers_;
  std::deque<OneWayHandler> oneway_handlers_;
  // Unordered: removal swaps the last call into the hole.
  std::vector<Pending> pending_;
};

}  // namespace faastcc::net
