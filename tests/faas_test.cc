// Unit tests for the FaaS runtime: DAG model, registry, scheduler and
// compute nodes (joins, abort propagation, executor pool).
#include <gtest/gtest.h>

#include "faas/compute_node.h"
#include "faas/dag.h"
#include "faas/function_registry.h"
#include "faas/messages.h"
#include "faas/scheduler.h"
#include "harness/cluster.h"
#include "workload/workload.h"

namespace faastcc::faas {
namespace {

FunctionSpec fn(std::string name, std::vector<uint32_t> children = {}) {
  FunctionSpec f;
  f.name = std::move(name);
  f.children = std::move(children);
  return f;
}

// ---------------------------------------------------------------------------
// DagSpec
// ---------------------------------------------------------------------------

TEST(DagSpec, ChainBuilderLinksSequentially) {
  auto d = DagSpec::chain({fn("a"), fn("b"), fn("c")});
  EXPECT_EQ(d.functions[0].children, (std::vector<uint32_t>{1}));
  EXPECT_EQ(d.functions[1].children, (std::vector<uint32_t>{2}));
  EXPECT_TRUE(d.functions[2].children.empty());
  EXPECT_TRUE(d.valid());
  EXPECT_EQ(d.root(), 0u);
}

TEST(DagSpec, InDegreesCountParents) {
  DagSpec d;
  d.functions = {fn("root", {1, 2}), fn("left", {3}), fn("right", {3}),
                 fn("sink")};
  const auto deg = d.in_degrees();
  EXPECT_EQ(deg, (std::vector<uint32_t>{0, 1, 1, 2}));
  EXPECT_TRUE(d.valid());
}

TEST(DagSpec, RejectsMultipleRoots) {
  DagSpec d;
  d.functions = {fn("a", {2}), fn("b", {2}), fn("sink")};
  EXPECT_FALSE(d.valid());
}

TEST(DagSpec, RejectsMultipleSinks) {
  DagSpec d;
  d.functions = {fn("root", {1, 2}), fn("s1"), fn("s2")};
  EXPECT_FALSE(d.valid());
}

TEST(DagSpec, NormalizeSinksAppendsSync) {
  DagSpec d;
  d.functions = {fn("root", {1, 2}), fn("s1"), fn("s2")};
  EXPECT_TRUE(d.normalize_sinks());
  EXPECT_TRUE(d.valid());
  EXPECT_EQ(d.functions.size(), 4u);
  EXPECT_EQ(d.functions.back().name, "__sync");
  EXPECT_EQ(d.functions[1].children, (std::vector<uint32_t>{3}));
  EXPECT_EQ(d.functions[2].children, (std::vector<uint32_t>{3}));
}

TEST(DagSpec, NormalizeSinksNoOpForSingleSink) {
  auto d = DagSpec::chain({fn("a"), fn("b")});
  EXPECT_FALSE(d.normalize_sinks());
  EXPECT_EQ(d.functions.size(), 2u);
}


TEST(DagSpec, RejectsCycles) {
  DagSpec d;
  d.functions = {fn("a", {1}), fn("b", {2}), fn("c", {1, 3}), fn("sink")};
  EXPECT_FALSE(d.valid());
}

TEST(DagSpec, RejectsOutOfRangeChild) {
  DagSpec d;
  d.functions = {fn("a", {7})};
  EXPECT_FALSE(d.valid());
}

TEST(DagSpec, RejectsEmpty) {
  DagSpec d;
  EXPECT_FALSE(d.valid());
}

TEST(DagSpec, SingleFunctionIsValid) {
  DagSpec d;
  d.functions = {fn("only")};
  EXPECT_TRUE(d.valid());
}

TEST(DagSpec, EncodeDecodeRoundTrip) {
  DagSpec d;
  d.functions = {fn("root", {1}), fn("sink")};
  d.functions[0].args = {1, 2, 3};
  d.is_static = true;
  d.declared_read_set = {10, 20};
  d.declared_write_set = {30};
  const auto e = decode_message<DagSpec>(encode_message(d));
  EXPECT_EQ(e.functions.size(), 2u);
  EXPECT_EQ(e.functions[0].name, "root");
  EXPECT_EQ(e.functions[0].args, (Buffer{1, 2, 3}));
  EXPECT_TRUE(e.is_static);
  EXPECT_EQ(e.declared_read_set, (std::vector<Key>{10, 20}));
  EXPECT_EQ(e.declared_write_set, (std::vector<Key>{30}));
}

// ---------------------------------------------------------------------------
// FunctionRegistry
// ---------------------------------------------------------------------------

TEST(FunctionRegistry, RegistersAndFinds) {
  FunctionRegistry r;
  r.register_function("f", [](ExecEnv&) -> sim::Task<Buffer> {
    co_return Buffer{};
  });
  EXPECT_NE(r.find("f"), nullptr);
  EXPECT_EQ(r.find("g"), nullptr);
  // "f" plus the built-in "__sync" aggregator.
  EXPECT_EQ(r.names().size(), 2u);
  EXPECT_NE(r.find("__sync"), nullptr);
}

// ---------------------------------------------------------------------------
// End-to-end runtime behaviour via the harness cluster (FaaSTCC system).
// ---------------------------------------------------------------------------

harness::ClusterParams tiny_params() {
  harness::ClusterParams p;
  p.system = harness::SystemKind::kFaasTcc;
  p.partitions = 2;
  p.compute_nodes = 3;
  p.clients = 1;
  p.dags_per_client = 0;  // driven manually below
  p.workload.num_keys = 100;
  p.prewarm_caches = false;
  return p;
}

// Runs one hand-built DAG on a cluster and returns the completion message.
DagDoneMsg run_dag(harness::Cluster& cluster, DagSpec spec) {
  cluster.start();
  net::RpcNode client(cluster.network(), 900);
  std::optional<DagDoneMsg> done;
  client.handle_oneway(kDagDone, [&](Buffer b, net::Address) {
    done = decode_message<DagDoneMsg>(b);
  });
  StartDagMsg start;
  start.txn_id = 42;
  start.client = 900;
  start.spec = std::move(spec);
  client.send(cluster.scheduler_address(), kStartDag, start);
  const SimTime deadline = cluster.loop().now() + seconds(30);
  while (!done.has_value() && cluster.loop().now() < deadline) {
    cluster.loop().run_until(cluster.loop().now() + milliseconds(5));
  }
  EXPECT_TRUE(done.has_value()) << "DAG did not complete";
  return done.value_or(DagDoneMsg{});
}

TEST(Runtime, ExecutesChainAndCommits) {
  harness::Cluster cluster(tiny_params());
  int executed = 0;
  cluster.registry().register_function(
      "count", [&executed](ExecEnv&) -> sim::Task<Buffer> {
        ++executed;
        co_return Buffer{};
      });
  cluster.registry().register_function(
      "write_sink", [](ExecEnv& env) -> sim::Task<Buffer> {
        env.txn.write(3, "done");
        co_return Buffer{};
      });
  auto spec = DagSpec::chain({fn("count"), fn("count"), fn("write_sink")});
  const auto done = run_dag(cluster, spec);
  EXPECT_TRUE(done.committed);
  EXPECT_EQ(executed, 2);
}

TEST(Runtime, ParallelBranchesJoinBeforeSink) {
  harness::Cluster cluster(tiny_params());
  std::vector<std::string> trace;
  cluster.registry().register_function(
      "t_root", [&trace](ExecEnv&) -> sim::Task<Buffer> {
        trace.push_back("root");
        co_return Buffer{};
      });
  cluster.registry().register_function(
      "t_branch", [&trace](ExecEnv&) -> sim::Task<Buffer> {
        trace.push_back("branch");
        co_return Buffer{};
      });
  cluster.registry().register_function(
      "t_sink", [&trace](ExecEnv&) -> sim::Task<Buffer> {
        trace.push_back("sink");
        co_return Buffer{};
      });
  DagSpec spec;
  spec.functions = {fn("t_root", {1, 2}), fn("t_branch", {3}),
                    fn("t_branch", {3}), fn("t_sink")};
  const auto done = run_dag(cluster, spec);
  EXPECT_TRUE(done.committed);
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.front(), "root");
  EXPECT_EQ(trace.back(), "sink");  // sink strictly after both branches
}

TEST(Runtime, BodyRequestedAbortReachesClient) {
  harness::Cluster cluster(tiny_params());
  cluster.registry().register_function(
      "aborter", [](ExecEnv& env) -> sim::Task<Buffer> {
        env.abort_requested = true;
        co_return Buffer{};
      });
  auto spec = DagSpec::chain({fn("aborter"), fn("aborter")});
  const auto done = run_dag(cluster, spec);
  EXPECT_FALSE(done.committed);
}

TEST(Runtime, TxnAbortExceptionAborts) {
  harness::Cluster cluster(tiny_params());
  cluster.registry().register_function(
      "thrower", [](ExecEnv&) -> sim::Task<Buffer> {
        throw client::TxnAbort{};
        co_return Buffer{};
      });
  auto spec = DagSpec::chain({fn("thrower")});
  const auto done = run_dag(cluster, spec);
  EXPECT_FALSE(done.committed);
}

TEST(Runtime, InvalidDagRejectedByScheduler) {
  harness::Cluster cluster(tiny_params());
  DagSpec bad;  // empty
  const auto done = run_dag(cluster, bad);
  EXPECT_FALSE(done.committed);
}

TEST(Runtime, UnknownFunctionAborts) {
  harness::Cluster cluster(tiny_params());
  auto spec = DagSpec::chain({fn("no_such_function")});
  const auto done = run_dag(cluster, spec);
  EXPECT_FALSE(done.committed);
}

// Regression: the aborted-transaction tombstones were cleared wholesale
// when they outgrew their bound, so a straggler trigger of a transaction
// that had just aborted ran its function anyway.  The bound now evicts
// oldest-first.
TEST(Runtime, AbortTombstonesEvictFifoNotWholesale) {
  harness::ClusterParams p = tiny_params();
  p.node.aborted_dedup_cap = 4;
  harness::Cluster cluster(p);
  cluster.start();
  const net::Address node = 4000;  // first compute node
  net::RpcNode client(cluster.network(), 900);
  std::vector<TxnId> done;
  client.handle_oneway(kDagDone, [&](Buffer b, net::Address) {
    done.push_back(decode_message<DagDoneMsg>(b).txn_id);
  });
  const auto settle = [&] {
    cluster.loop().run_until(cluster.loop().now() + milliseconds(50));
  };
  // One more abort than the window holds, delivered one at a time (the
  // fabric's jitter would reorder a burst).
  const TxnId base = 1'000'000;
  for (TxnId txn = base + 1; txn <= base + 5; ++txn) {
    client.send(node, kAbortNotice, AbortNoticeMsg{txn});
    settle();
  }
  TriggerMsg straggler;
  straggler.client = 900;
  straggler.spec = DagSpec::chain({fn("no_such_function")});
  straggler.placement = {node};
  // The newest tombstone survives: its straggler is dropped unexecuted
  // (executing it would report the DAG, here as an abort).
  straggler.txn_id = base + 5;
  client.send(node, kTrigger, straggler);
  settle();
  EXPECT_TRUE(done.empty());
  // The oldest tombstone was the one evicted: its straggler now runs.
  straggler.txn_id = base + 1;
  client.send(node, kTrigger, straggler);
  settle();
  EXPECT_EQ(done, std::vector<TxnId>{base + 1});
}

TEST(Runtime, ResultsFlowDownstream) {
  harness::Cluster cluster(tiny_params());
  cluster.registry().register_function(
      "producer", [](ExecEnv&) -> sim::Task<Buffer> {
        co_return Buffer{9, 9, 9};
      });
  Buffer seen;
  cluster.registry().register_function(
      "consumer", [&seen](ExecEnv& env) -> sim::Task<Buffer> {
        seen = env.parent_result;
        co_return Buffer{};
      });
  auto spec = DagSpec::chain({fn("producer"), fn("consumer")});
  const auto done = run_dag(cluster, spec);
  EXPECT_TRUE(done.committed);
  EXPECT_EQ(seen, (Buffer{9, 9, 9}));
}

TEST(Runtime, ReadYourWritesAcrossFunctions) {
  harness::Cluster cluster(tiny_params());
  cluster.registry().register_function(
      "writer_fn", [](ExecEnv& env) -> sim::Task<Buffer> {
        env.txn.write(7, "from-upstream");
        co_return Buffer{};
      });
  Value observed;
  cluster.registry().register_function(
      "reader_fn", [&observed](ExecEnv& env) -> sim::Task<Buffer> {
        auto vals = co_await env.txn.read(std::vector<Key>(1, Key{7}));
        if (vals.has_value()) observed = (*vals)[0];
        co_return Buffer{};
      });
  auto spec = DagSpec::chain({fn("writer_fn"), fn("reader_fn")});
  const auto done = run_dag(cluster, spec);
  EXPECT_TRUE(done.committed);
  EXPECT_EQ(observed, "from-upstream");
}

TEST(Runtime, MultiSinkDagNormalizedAndCommits) {
  harness::Cluster cluster(tiny_params());
  int ran = 0;
  cluster.registry().register_function(
      "leaf", [&ran](ExecEnv& env) -> sim::Task<Buffer> {
        ++ran;
        env.txn.write(static_cast<Key>(ran), "leaf");
        co_return Buffer{};
      });
  cluster.registry().register_function(
      "fan_root", [](ExecEnv&) -> sim::Task<Buffer> { co_return Buffer{}; });
  DagSpec spec;
  spec.functions = {fn("fan_root", {1, 2}), fn("leaf"), fn("leaf")};
  // Two sinks: the scheduler must extend the graph with "__sync" and the
  // whole composition (both leaves' writes) commits atomically.
  const auto done = run_dag(cluster, spec);
  EXPECT_TRUE(done.committed);
  EXPECT_EQ(ran, 2);
  cluster.loop().run_until(cluster.loop().now() + milliseconds(50));
  size_t versions = 0;
  for (auto& p : cluster.tcc_partitions()) {
    versions += p->store().num_versions();
  }
  // 100 preloaded dataset versions plus the two leaf writes.
  EXPECT_EQ(versions, 102u);
}

TEST(Runtime, WritesInvisibleUntilCommit) {
  harness::Cluster cluster(tiny_params());
  bool sink_started = false;
  cluster.registry().register_function(
      "slow_writer", [&cluster](ExecEnv& env) -> sim::Task<Buffer> {
        env.txn.write(7, "pending");
        co_await sim::sleep_for(cluster.loop(), milliseconds(50));
        co_return Buffer{};
      });
  cluster.registry().register_function(
      "slow_sink",
      [&cluster, &sink_started](ExecEnv& env) -> sim::Task<Buffer> {
        sink_started = true;
        env.txn.write(7, "final");
        co_await sim::sleep_for(cluster.loop(), milliseconds(10));
        co_return Buffer{};
      });
  auto spec = DagSpec::chain({fn("slow_writer"), fn("slow_sink")});
  cluster.start();
  // Probe the storage directly: key 7 must have no version at least until
  // the sink function starts executing (commit happens strictly after the
  // sink body returns).
  net::RpcNode client(cluster.network(), 900);
  bool committed = false;
  client.handle_oneway(kDagDone, [&](Buffer b, net::Address) {
    committed = decode_message<DagDoneMsg>(b).committed;
  });
  StartDagMsg start;
  start.txn_id = 42;
  start.client = 900;
  start.spec = spec;
  client.send(cluster.scheduler_address(), kStartDag, start);
  // The dataset preload installs one version per key at ts (1,0,0); the
  // transaction's write must not add a second one before the sink commits.
  const auto& partition =
      cluster.tcc_partitions()[7 % cluster.params().partitions];
  const Timestamp preload_ts(1, 0, 0);
  while (!sink_started && cluster.loop().now() < seconds(30)) {
    cluster.loop().run_until(cluster.loop().now() + milliseconds(1));
    if (!sink_started) {
      EXPECT_EQ(partition->store().newest_ts(7), preload_ts)
          << "uncommitted write became visible";
    }
  }
  EXPECT_TRUE(sink_started);
  while (!committed && cluster.loop().now() < seconds(30)) {
    cluster.loop().run_until(cluster.loop().now() + milliseconds(1));
  }
  EXPECT_TRUE(committed);
  cluster.loop().run_until(cluster.loop().now() + milliseconds(20));
  const auto r = partition->store().read_at(7, Timestamp::max());
  ASSERT_NE(r.version, nullptr);
  EXPECT_GT(r.version->ts, preload_ts);
  EXPECT_EQ(r.version->value, "final");
}

// ---------------------------------------------------------------------------
// Workload generator.
// ---------------------------------------------------------------------------

TEST(Workload, BuildsChainsOfRequestedSize) {
  workload::WorkloadParams p;
  p.dag_size = 6;
  p.num_keys = 1000;
  workload::WorkloadGen gen(p, Rng(3));
  const auto dag = gen.next_dag();
  EXPECT_EQ(dag.functions.size(), 6u);
  EXPECT_TRUE(dag.valid());
  EXPECT_EQ(dag.functions.back().name, "wl_sink");
  for (size_t i = 0; i + 1 < dag.functions.size(); ++i) {
    EXPECT_EQ(dag.functions[i].name, "wl_step");
  }
}

TEST(Workload, StaticDagsDeclareKeySets) {
  workload::WorkloadParams p;
  p.static_txns = true;
  p.num_keys = 1000;
  workload::WorkloadGen gen(p, Rng(3));
  const auto dag = gen.next_dag();
  EXPECT_FALSE(dag.declared_read_set.empty());
  EXPECT_EQ(dag.declared_write_set.size(), 1u);
  // Declared read set covers every key in every function's args.
  for (size_t i = 0; i + 1 < dag.functions.size(); ++i) {
    const auto args = decode_message<workload::StepArgs>(dag.functions[i].args);
    for (Key k : args.keys) {
      EXPECT_TRUE(std::count(dag.declared_read_set.begin(),
                             dag.declared_read_set.end(), k) > 0);
    }
  }
}

TEST(Workload, DynamicDagsDeclareNothing) {
  workload::WorkloadParams p;
  p.static_txns = false;
  workload::WorkloadGen gen(p, Rng(3));
  const auto dag = gen.next_dag();
  EXPECT_FALSE(dag.is_static);
  EXPECT_TRUE(dag.declared_read_set.empty());
}

TEST(Workload, SharedZipfTableGeneratesTheSameDags) {
  workload::WorkloadParams p;
  p.num_keys = 5000;
  p.zipf = 1.2;
  const ZipfSampler zipf(p.num_keys, p.zipf);
  workload::WorkloadGen own(p, Rng(11));
  workload::WorkloadGen shared(p, Rng(11), zipf);
  for (int i = 0; i < 200; ++i) {
    const auto a = own.next_dag();
    const auto b = shared.next_dag();
    ASSERT_EQ(a.functions.size(), b.functions.size());
    for (size_t f = 0; f < a.functions.size(); ++f) {
      ASSERT_EQ(a.functions[f].args, b.functions[f].args) << "dag " << i;
    }
  }
}

TEST(Workload, ArgsRoundTrip) {
  workload::StepArgs sa;
  sa.keys = {1, 2, 3};
  const auto sa2 = decode_message<workload::StepArgs>(encode_message(sa));
  EXPECT_EQ(sa2.keys, sa.keys);

  workload::SinkArgs ka;
  ka.keys = {4, 5};
  ka.write_key = 9;
  ka.value = "abc";
  const auto ka2 = decode_message<workload::SinkArgs>(encode_message(ka));
  EXPECT_EQ(ka2.keys, ka.keys);
  EXPECT_EQ(ka2.write_key, 9u);
  EXPECT_EQ(ka2.value, "abc");
}

}  // namespace
}  // namespace faastcc::faas
