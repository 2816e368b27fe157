// Robustness / fault-injection tests: the protocols must stay correct (if
// slower) under clock skew, straggling partitions and aggressive version
// GC.  Correctness is checked with the paired-write invariant: keys 2i and
// 2i+1 are always written together; reading them in different functions
// must never observe a torn pair.
#include <gtest/gtest.h>

#include "check/oracle.h"
#include "harness/cluster.h"

namespace faastcc::harness {
namespace {

struct PairOutcome {
  int checks = 0;
  int torn = 0;
  int committed = 0;
  int completed = 0;
};

// Runs interleaved pair-writers and two-hop pair-checkers on the given
// cluster parameters.
PairOutcome run_pair_workload(ClusterParams params, int rounds = 80) {
  params.clients = 0;
  params.workload.num_keys = 32;
  Cluster cluster(std::move(params));
  PairOutcome out;

  cluster.registry().register_function(
      "pw", [](faas::ExecEnv& env) -> sim::Task<Buffer> {
        BufReader r(env.args);
        const Key pair = r.get_u64();
        const uint64_t tag = r.get_u64();
        env.txn.write(pair * 2, std::to_string(tag));
        env.txn.write(pair * 2 + 1, std::to_string(tag));
        co_return Buffer{};
      });
  cluster.registry().register_function(
      "pr_even", [](faas::ExecEnv& env) -> sim::Task<Buffer> {
        BufReader r(env.args);
        const Key pair = r.get_u64();
        auto vals = co_await env.txn.read(std::vector<Key>(1, pair * 2));
        if (!vals.has_value()) {
          env.abort_requested = true;
          co_return Buffer{};
        }
        BufWriter w;
        w.put_bytes((*vals)[0]);
        co_return w.take();
      });
  cluster.registry().register_function(
      "pr_odd", [&out](faas::ExecEnv& env) -> sim::Task<Buffer> {
        BufReader ar(env.args);
        const Key pair = ar.get_u64();
        auto vals = co_await env.txn.read(std::vector<Key>(1, pair * 2 + 1));
        if (!vals.has_value()) {
          env.abort_requested = true;
          co_return Buffer{};
        }
        BufReader pr(env.parent_result);
        ++out.checks;
        if (pr.get_bytes() != (*vals)[0]) ++out.torn;
        co_return Buffer{};
      });

  cluster.start();
  net::RpcNode driver(cluster.network(), 900);
  driver.handle_oneway(faas::kDagDone, [&](Buffer b, net::Address) {
    ++out.completed;
    if (decode_message<faas::DagDoneMsg>(b).committed) ++out.committed;
  });
  Rng rng(5);
  for (int i = 0; i < rounds; ++i) {
    cluster.loop().schedule_after(i * milliseconds(2), [&, i] {
      faas::StartDagMsg start;
      start.txn_id = static_cast<TxnId>(i + 1);
      start.client = 900;
      BufWriter args;
      args.put_u64(rng.next_below(8));
      args.put_u64(static_cast<uint64_t>(i + 1));
      faas::FunctionSpec f1;
      faas::FunctionSpec f2;
      if (i % 2 == 0) {
        f1.name = "pw";
        f1.args = args.take();
        start.spec = faas::DagSpec::chain({f1});
      } else {
        f1.name = "pr_even";
        f1.args = args.take();
        f2.name = "pr_odd";
        f2.args = f1.args;
        start.spec = faas::DagSpec::chain({f1, f2});
      }
      driver.send(cluster.scheduler_address(), faas::kStartDag, start);
    });
  }
  while (out.completed < rounds && cluster.loop().now() < seconds(120)) {
    cluster.loop().run_until(cluster.loop().now() + milliseconds(10));
  }
  EXPECT_EQ(out.completed, rounds);
  return out;
}

ClusterParams base() {
  ClusterParams p;
  p.system = SystemKind::kFaasTcc;
  p.partitions = 4;
  p.compute_nodes = 4;
  return p;
}

// ---------------------------------------------------------------------------
// Clock skew: hybrid logical clocks absorb bounded physical skew.
// ---------------------------------------------------------------------------

class ClockSkewSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(ClockSkewSweep, PairInvariantHoldsUnderSkew) {
  ClusterParams p = base();
  p.clock_skew_us = GetParam();
  const PairOutcome out = run_pair_workload(std::move(p));
  EXPECT_GT(out.checks, 0);
  EXPECT_EQ(out.torn, 0) << "skew " << GetParam() << "us broke consistency";
  EXPECT_GT(out.committed, 0);
}

INSTANTIATE_TEST_SUITE_P(Skews, ClockSkewSweep,
                         ::testing::Values(0, 1000, 10000, 50000));

// ---------------------------------------------------------------------------
// Straggler partition: one partition gossips 10x slower; the stable time
// lags but nothing breaks.
// ---------------------------------------------------------------------------

TEST(Straggler, SlowGossiperDelaysButDoesNotBreak) {
  ClusterParams p = base();
  p.straggler_gossip_factor = 10;
  const PairOutcome out = run_pair_workload(std::move(p));
  EXPECT_EQ(out.torn, 0);
  EXPECT_EQ(out.completed, 80);
}

TEST(Straggler, LatencyDegradesGracefully) {
  // A straggling stabilizer stalls freshness, not throughput: both runs
  // complete the same workload.
  ClusterParams fast = base();
  ClusterParams slow = base();
  slow.straggler_gossip_factor = 20;
  fast.clients = 4;
  slow.clients = 4;
  fast.dags_per_client = 30;
  slow.dags_per_client = 30;
  fast.workload.num_keys = 1000;
  slow.workload.num_keys = 1000;
  Cluster a(std::move(fast));
  Cluster b(std::move(slow));
  const RunResult ra = a.run();
  const RunResult rb = b.run();
  EXPECT_EQ(ra.committed, 120u);
  EXPECT_EQ(rb.committed, 120u);
}

// ---------------------------------------------------------------------------
// Aggressive GC: premature version collection may abort long transactions
// (paper §4.2) but never corrupts committed state.
// ---------------------------------------------------------------------------

TEST(AggressiveGc, AbortsPossibleConsistencyKept) {
  ClusterParams p = base();
  p.tcc.gc_window = milliseconds(5);
  p.tcc.gc_period = milliseconds(10);
  const PairOutcome out = run_pair_workload(std::move(p));
  EXPECT_EQ(out.torn, 0) << "GC must never expose torn state";
  // Checks succeed or abort; never lie.
  EXPECT_LE(out.committed, out.completed);
}

// ---------------------------------------------------------------------------
// Determinism holds for every system.
// ---------------------------------------------------------------------------

class DeterminismSweep : public ::testing::TestWithParam<SystemKind> {};

TEST_P(DeterminismSweep, IdenticalSeedsIdenticalRuns) {
  auto once = [&] {
    ClusterParams p = base();
    p.system = GetParam();
    p.clients = 4;
    p.dags_per_client = 20;
    p.workload.num_keys = 500;
    Cluster cluster(std::move(p));
    return cluster.run();
  };
  const RunResult a = once();
  const RunResult b = once();
  // The whole RunResult must be bit-identical, not merely "close": any
  // divergence means some component drew from an unforked random stream.
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.aborted_attempts, b.aborted_attempts);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.cache_entries, b.cache_entries);
  EXPECT_EQ(a.cache_bytes, b.cache_bytes);
  EXPECT_EQ(a.metrics.dag_latency_ms.raw(), b.metrics.dag_latency_ms.raw());
  EXPECT_EQ(a.metrics.metadata_bytes.raw(), b.metrics.metadata_bytes.raw());
}

INSTANTIATE_TEST_SUITE_P(Systems, DeterminismSweep,
                         ::testing::Values(SystemKind::kFaasTcc,
                                           SystemKind::kHydroCache,
                                           SystemKind::kCloudburst));

// ---------------------------------------------------------------------------
// Network faults: with 1% message loss (plus duplication and delay spikes)
// every client must still terminate — RPC timeouts and the DAG watchdog
// turn lost messages into retriable aborts, never into hung coroutines.
// ---------------------------------------------------------------------------

ClusterParams faulty(SystemKind system) {
  ClusterParams p = base();
  p.system = system;
  p.clients = 4;
  p.dags_per_client = 15;
  p.workload.num_keys = 500;
  p.faults.loss_prob = 0.01;
  p.faults.dup_prob = 0.005;
  p.faults.delay_spike_prob = 0.005;
  // A hung client would otherwise spin the loop for an hour of sim time.
  p.max_sim_time = seconds(60);
  return p;
}

class FaultSweep : public ::testing::TestWithParam<SystemKind> {};

TEST_P(FaultSweep, MessageLossNeverHangsClients) {
  Cluster cluster(faulty(GetParam()));
  const RunResult r = cluster.run();
  for (const auto& c : cluster.clients()) {
    EXPECT_TRUE(c->done()) << "client hung under message loss";
  }
  // Terminating via the max_sim_time escape hatch is a hang, not a pass.
  EXPECT_LT(r.duration_s, 30.0);
  EXPECT_GT(r.committed, 0u);
  // Losses actually happened (the fault layer is live, not a no-op) ...
  EXPECT_GT(r.metrics.find_counter("net.lost")->value(), 0u);
  // ... and aborts stayed bounded: retries absorb faults, they don't spiral.
  const double attempts =
      static_cast<double>(r.committed + r.aborted_attempts);
  EXPECT_LT(static_cast<double>(r.aborted_attempts) / attempts, 0.5);
}

TEST_P(FaultSweep, FaultRunsAreDeterministicPerSeed) {
  auto once = [&] {
    Cluster cluster(faulty(GetParam()));
    return cluster.run();
  };
  const RunResult a = once();
  const RunResult b = once();
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.aborted_attempts, b.aborted_attempts);
  for (const char* name :
       {"net.lost", "net.duplicated", "net.rpc_timeouts", "net.rpc_retries"}) {
    EXPECT_EQ(a.metrics.find_counter(name)->value(),
              b.metrics.find_counter(name)->value())
        << name;
  }
  EXPECT_EQ(a.metrics.dag_latency_ms.raw(), b.metrics.dag_latency_ms.raw());
}

INSTANTIATE_TEST_SUITE_P(Systems, FaultSweep,
                         ::testing::Values(SystemKind::kFaasTcc,
                                           SystemKind::kHydroCache,
                                           SystemKind::kCloudburst));

// ---------------------------------------------------------------------------
// Commit-retry correctness at a single partition: regressions for the
// lost-write ack and dedup-amnesia bugs, with the oracle cross-checking
// the pre-fix behavior via its chaos knob.
// ---------------------------------------------------------------------------

template <typename F>
void run_sim(sim::EventLoop& loop, F&& body) {
  bool done = false;
  sim::spawn([](F f, bool& flag) -> sim::Task<void> {
    co_await f();
    flag = true;
  }(std::forward<F>(body), done));
  const SimTime deadline = loop.now() + seconds(60);
  while (!done && loop.now() < deadline) {
    loop.run_until(loop.now() + milliseconds(2));
  }
  ASSERT_TRUE(done);
}

TEST(CommitRetry, ExpiredPrepareRefusesRetriedCommit) {
  // A commit retry arriving after the prepare lease expired must be
  // refused: the partition aborted the txn and installed nothing, so an
  // ok=true reply would report commit for writes that were dropped.
  sim::EventLoop loop;
  net::Network net(loop, net::NetworkParams{}, Rng(7));
  net::RpcNode rpc(net, 50);
  storage::TccTopology topo;
  topo.partitions = {100};
  storage::TccPartitionParams params;
  params.gossip_period = milliseconds(5);
  params.prepare_ttl = milliseconds(20);
  storage::TccPartition part(net, 100, 0, topo.partitions, params);
  part.start();

  run_sim(loop, [&]() -> sim::Task<void> {
    storage::TccPrepareReq prep;
    prep.txn = 9;
    prep.dep_ts = Timestamp::min();
    prep.write_keys.push_back(1);
    auto presp = co_await rpc.call<storage::TccPrepareResp>(
        100, storage::kTccPrepare, prep);
    EXPECT_TRUE(presp.ok);
    // Outlive the prepare lease; the expiry sweep aborts the txn.
    co_await sim::sleep_for(loop, milliseconds(60));
    EXPECT_GT(part.counters().prepares_expired.value(), 0u);
    storage::TccCommitReq commit;
    commit.txn = 9;
    commit.commit_ts = presp.prepare_ts;
    commit.dep_ts = Timestamp::min();
    commit.writes.push_back(storage::KeyValue{1, "late"});
    Buffer raw =
        co_await rpc.call_raw(100, storage::kTccCommit, rpc.encode(commit));
    BufReader r(raw);
    const auto resp = decode_from<storage::TccCommitResp>(r);
    EXPECT_FALSE(resp.ok) << "partition acked a commit it dropped";
    EXPECT_EQ(part.store().num_versions(), 0u);
  });
}

TEST(CommitRetry, OracleCatchesAckedExpiredCommit) {
  // Pre-fix behavior, reintroduced via the chaos knob: the partition acks
  // the retried commit of an expired prepare while installing nothing.  A
  // coordinator trusting that ack reports commit to the client — the
  // oracle must flag the acked write as lost.
  sim::EventLoop loop;
  net::Network net(loop, net::NetworkParams{}, Rng(7));
  net::RpcNode rpc(net, 50);
  storage::TccTopology topo;
  topo.partitions = {100};
  storage::TccPartitionParams params;
  params.gossip_period = milliseconds(5);
  params.prepare_ttl = milliseconds(20);
  params.chaos_ack_expired_commit = true;
  check::ConsistencyOracle oracle;
  storage::TccPartition part(net, 100, 0, topo.partitions, params, nullptr,
                             &oracle);
  part.start();

  run_sim(loop, [&]() -> sim::Task<void> {
    storage::TccPrepareReq prep;
    prep.txn = 9;
    prep.dep_ts = Timestamp::min();
    prep.write_keys.push_back(1);
    auto presp = co_await rpc.call<storage::TccPrepareResp>(
        100, storage::kTccPrepare, prep);
    EXPECT_TRUE(presp.ok);
    co_await sim::sleep_for(loop, milliseconds(60));
    storage::TccCommitReq commit;
    commit.txn = 9;
    commit.commit_ts = presp.prepare_ts;
    commit.dep_ts = Timestamp::min();
    commit.writes.push_back(storage::KeyValue{1, "late"});
    oracle.on_commit_phase(9, {1});
    Buffer raw =
        co_await rpc.call_raw(100, storage::kTccCommit, rpc.encode(commit));
    BufReader r(raw);
    const auto resp = decode_from<storage::TccCommitResp>(r);
    EXPECT_TRUE(resp.ok);  // the bug: acked without installing
    EXPECT_EQ(part.store().num_versions(), 0u);
    oracle.on_commit_ack(9, presp.prepare_ts, Timestamp::min());
  });
  const auto vs = oracle.check();
  bool lost = false;
  for (const auto& v : vs) {
    if (v.kind == check::Violation::Kind::kLostWrite) lost = true;
  }
  EXPECT_TRUE(lost) << "oracle missed the lost-write ack";
}

TEST(CommitRetry, DedupWindowEvictsFifoNotWholesale) {
  // resolved_cap = 2: three fast-path commits overflow the window by one.
  // A replayed commit of the *recent* txn 2 must be answered from the
  // window with its original timestamp — not re-executed.  The historic
  // wholesale clear() at the cap forgot every resolution, so a replay of
  // a just-committed fast-path txn minted a second version at a fresh
  // timestamp.
  sim::EventLoop loop;
  net::Network net(loop, net::NetworkParams{}, Rng(7));
  net::RpcNode rpc(net, 50);
  storage::TccTopology topo;
  topo.partitions = {100};
  storage::TccPartitionParams params;
  params.resolved_cap = 2;
  storage::TccPartition part(net, 100, 0, topo.partitions, params);
  storage::TccStorageClient client(rpc, topo);
  part.start();

  run_sim(loop, [&]() -> sim::Task<void> {
    auto commit_one = [&](TxnId txn,
                          const char* v) -> sim::Task<Timestamp> {
      std::vector<storage::KeyValue> writes;
      writes.push_back(storage::KeyValue{1, v});
      co_return *co_await client.commit(txn, std::move(writes),
                                        Timestamp::min());
    };
    co_await commit_one(1, "a");
    const Timestamp t2 = co_await commit_one(2, "b");
    co_await commit_one(3, "c");
    const size_t versions = part.store().num_versions();
    const uint64_t dups = part.counters().duplicate_commits.value();

    storage::TccCommitReq replay;
    replay.txn = 2;
    replay.commit_ts = Timestamp::min();  // fast-path retry, ts unassigned
    replay.dep_ts = Timestamp::min();
    replay.writes.push_back(storage::KeyValue{1, "b"});
    Buffer raw =
        co_await rpc.call_raw(100, storage::kTccCommit, rpc.encode(replay));
    BufReader r(raw);
    const auto resp = decode_from<storage::TccCommitResp>(r);
    EXPECT_TRUE(resp.ok);
    EXPECT_EQ(resp.commit_ts, t2) << "replay re-assigned a timestamp";
    EXPECT_EQ(part.store().num_versions(), versions)
        << "replayed commit minted a second version";
    EXPECT_EQ(part.counters().duplicate_commits.value(), dups + 1);
  });
}

TEST(CommitRetry, BackfillShipsResolvedWindowOldestFirstAfterWrap) {
  // resolved_cap = 4 and six commits: the window has wrapped, and a
  // backfill must ship the four newest resolutions oldest first — the
  // order a follower replays them into its own FIFO window.  The follower
  // is severed while the commits run, so the leader demotes it and
  // re-syncs it by backfill once it is reachable again.
  sim::EventLoop loop;
  net::Network net(loop, net::NetworkParams{}, Rng(7));
  net.set_default_rpc_timeout(milliseconds(5));
  net.add_crash_window(net::CrashWindow{200, 0, seconds(1)});
  net::RpcNode rpc(net, 50);
  net::RpcNode follower(net, 200);
  std::vector<std::vector<TxnId>> shipped;
  follower.handle(storage::kTccReplInstall,
                  [&](Buffer, net::Address) -> sim::Task<Buffer> {
                    co_return follower.encode(storage::TccReplInstallResp{});
                  });
  follower.handle(storage::kTccReplSeal,
                  [&](Buffer, net::Address) -> sim::Task<Buffer> {
                    co_return follower.encode(storage::TccReplSealResp{});
                  });
  follower.handle(storage::kTccBackfill,
                  [&](Buffer b, net::Address) -> sim::Task<Buffer> {
                    const auto q = decode_message<storage::TccBackfillReq>(b);
                    std::vector<TxnId> txns;
                    for (const auto& t : q.resolved) txns.push_back(t.txn);
                    shipped.push_back(std::move(txns));
                    // Refused, so the leader keeps re-sending each beat.
                    co_return follower.encode(storage::TccBackfillResp{false});
                  });
  storage::TccTopology topo;
  topo.partitions = {100};
  storage::TccPartitionParams params;
  params.resolved_cap = 4;
  storage::TccPartition part(net, 100, 0, topo.partitions, params);
  part.set_followers({200});
  storage::TccStorageClient client(rpc, topo);
  part.start();

  run_sim(loop, [&]() -> sim::Task<void> {
    for (TxnId txn = 1; txn <= 6; ++txn) {
      std::vector<storage::KeyValue> writes;
      writes.push_back(storage::KeyValue{txn, "v"});
      EXPECT_TRUE((co_await client.commit(txn, std::move(writes),
                                          Timestamp::min()))
                      .has_value());
    }
    // The replication stream's bounded retry gives up well inside the
    // crash window, so the follower is demoted before it is reachable.
    co_await sim::sleep_for(loop, seconds(2) - loop.now());
  });
  ASSERT_FALSE(shipped.empty());
  for (const auto& txns : shipped) {
    EXPECT_EQ(txns, (std::vector<TxnId>{3, 4, 5, 6}));
  }
}

}  // namespace
}  // namespace faastcc::harness
