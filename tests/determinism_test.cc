// Regression guard for the simulation-core hot-path overhaul: buffer
// pooling, shared values and the 4-ary heap event loop are all invisible
// to the schedule.  Running the integration workload twice at the same
// seed must produce byte-identical observable state — every metric and
// the full trace export — for each of the three systems.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/cluster.h"
#include "harness/configs.h"
#include "harness/run_spec.h"

namespace faastcc::harness {
namespace {

ClusterParams params_for(SystemKind system) {
  ClusterParams p;
  p.system = system;
  p.seed = 11;
  p.partitions = 4;
  p.compute_nodes = 2;
  p.clients = 2;
  p.dags_per_client = 25;
  p.workload.num_keys = 500;
  p.workload.dag_size = 3;
  p.trace.enabled = true;
  p.trace.ring_capacity = 1 << 20;
  return p;
}

// Everything observable about a run, flattened for exact comparison.
struct RunSnapshot {
  uint64_t committed = 0;
  uint64_t aborted_attempts = 0;
  uint64_t sim_events = 0;
  uint64_t cache_entries = 0;
  uint64_t cache_bytes = 0;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::vector<double>> histograms;
  std::string trace;
};

RunSnapshot snapshot_of(Cluster& cluster, const RunResult& r) {
  RunSnapshot s;
  s.committed = r.committed;
  s.aborted_attempts = r.aborted_attempts;
  s.sim_events = r.sim_events;
  s.cache_entries = r.cache_entries;
  s.cache_bytes = r.cache_bytes;
  r.metrics.each_counter(
      [&](const char* name, const Counter& c) { s.counters[name] = c.value(); });
  r.metrics.each_histogram(
      [&](const char* name, const Samples& h) { s.histograms[name] = h.raw(); });
  std::ostringstream os;
  cluster.tracer().export_chrome_trace(os);
  s.trace = os.str();
  return s;
}

RunSnapshot snapshot_run(const ClusterParams& params) {
  Cluster cluster(params);
  const RunResult r = cluster.run();
  return snapshot_of(cluster, r);
}

RunSnapshot snapshot_run(SystemKind system) {
  return snapshot_run(params_for(system));
}

TEST(Determinism, SameSeedRunsAreByteIdenticalForEverySystem) {
  for (SystemKind system : {SystemKind::kFaasTcc, SystemKind::kHydroCache,
                            SystemKind::kCloudburst}) {
    SCOPED_TRACE(system_name(system));
    const RunSnapshot a = snapshot_run(system);
    const RunSnapshot b = snapshot_run(system);
    ASSERT_GT(a.committed, 0u);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.aborted_attempts, b.aborted_attempts);
    EXPECT_EQ(a.sim_events, b.sim_events);
    EXPECT_EQ(a.cache_entries, b.cache_entries);
    EXPECT_EQ(a.cache_bytes, b.cache_bytes);
    EXPECT_EQ(a.counters, b.counters);
    EXPECT_EQ(a.histograms, b.histograms);
    ASSERT_FALSE(a.trace.empty());
    EXPECT_EQ(a.trace, b.trace);
  }
}

// The consistency oracle is pure out-of-band recording, like the tracer:
// attaching it must not move a single event.  A run with the oracle on is
// byte-identical to the same seed with it off — and checks clean.
TEST(Determinism, OracleOnOffRunsAreByteIdentical) {
  ClusterParams p = params_for(SystemKind::kFaasTcc);
  const RunSnapshot off = snapshot_run(p);
  p.check_consistency = true;
  Cluster cluster(p);
  const RunSnapshot on = snapshot_of(cluster, cluster.run());
  ASSERT_GT(off.committed, 0u);
  EXPECT_EQ(off.committed, on.committed);
  EXPECT_EQ(off.aborted_attempts, on.aborted_attempts);
  EXPECT_EQ(off.sim_events, on.sim_events);
  EXPECT_EQ(off.cache_entries, on.cache_entries);
  EXPECT_EQ(off.cache_bytes, on.cache_bytes);
  EXPECT_EQ(off.counters, on.counters);
  EXPECT_EQ(off.histograms, on.histograms);
  ASSERT_FALSE(off.trace.empty());
  EXPECT_EQ(off.trace, on.trace);

  check::ConsistencyOracle* oracle = cluster.oracle();
  ASSERT_NE(oracle, nullptr);
  const auto vs = oracle->check();
  EXPECT_TRUE(vs.empty()) << oracle->report(vs);
  EXPECT_GT(oracle->installs_recorded(), 0u);
  EXPECT_GT(oracle->reads_recorded(), 0u);
}

// Elastic machinery armed but with no bump scheduled (at = 0 means
// enabled() is false) is fully inert: no joiner is constructed, no rng
// stream is forked, no event fires.  The run must be byte-identical to
// one that never mentions elasticity.
TEST(Determinism, IdleElasticMachineryIsByteIdentical) {
  const RunSnapshot plain = snapshot_run(params_for(SystemKind::kFaasTcc));
  ClusterParams p = params_for(SystemKind::kFaasTcc);
  p.elastic.add_partitions = 8;
  p.elastic.at = Duration{0};
  ASSERT_FALSE(p.elastic.enabled());
  const RunSnapshot idle = snapshot_run(p);
  ASSERT_GT(plain.committed, 0u);
  EXPECT_EQ(plain.committed, idle.committed);
  EXPECT_EQ(plain.aborted_attempts, idle.aborted_attempts);
  EXPECT_EQ(plain.sim_events, idle.sim_events);
  EXPECT_EQ(plain.cache_entries, idle.cache_entries);
  EXPECT_EQ(plain.cache_bytes, idle.cache_bytes);
  EXPECT_EQ(plain.counters, idle.counters);
  EXPECT_EQ(plain.histograms, idle.histograms);
  ASSERT_FALSE(plain.trace.empty());
  EXPECT_EQ(plain.trace, idle.trace);
}

// Same inertness bar for the scale-in half of the engine and for the
// autoscaler: scheduled with remove_at = 0 (never) / ceiling 0 (disabled),
// neither may perturb a single event, counter, sample or trace byte.
TEST(Determinism, IdleScaleInAndAutoscalerAreByteIdentical) {
  const RunSnapshot plain = snapshot_run(params_for(SystemKind::kFaasTcc));

  ClusterParams p = params_for(SystemKind::kFaasTcc);
  p.elastic.remove_partitions = 2;
  p.elastic.remove_at = Duration{0};
  ASSERT_FALSE(p.elastic.enabled());
  const RunSnapshot idle_in = snapshot_run(p);

  ClusterParams q = params_for(SystemKind::kFaasTcc);
  q.autoscale.max_partitions = 0;  // disabled
  q.autoscale.high_p99_ms = 5.0;
  ASSERT_FALSE(q.autoscale.enabled());
  const RunSnapshot idle_auto = snapshot_run(q);

  ASSERT_GT(plain.committed, 0u);
  for (const RunSnapshot* s : {&idle_in, &idle_auto}) {
    EXPECT_EQ(plain.committed, s->committed);
    EXPECT_EQ(plain.aborted_attempts, s->aborted_attempts);
    EXPECT_EQ(plain.sim_events, s->sim_events);
    EXPECT_EQ(plain.cache_entries, s->cache_entries);
    EXPECT_EQ(plain.cache_bytes, s->cache_bytes);
    EXPECT_EQ(plain.counters, s->counters);
    EXPECT_EQ(plain.histograms, s->histograms);
    EXPECT_EQ(plain.trace, s->trace);
  }
}

// Failover and handoff under loss, at the fuzzer's small shape.  The
// replication, commit-retry and migration counts (repl.*, tcc.*,
// routing.*) live only in the registry, so these counter maps are their
// determinism check; the pins below make sure each scenario really fired.
TEST(Determinism, LossyFailoverAndScaleOutRunsAreByteIdentical) {
  for (const char* config : {"kill-leader-lossy", "elastic-lossy"}) {
    SCOPED_TRACE(config);
    const ClusterParams p = fuzz_spec(config, 3, 4, 40).resolve();
    const RunSnapshot a = snapshot_run(p);
    const RunSnapshot b = snapshot_run(p);
    ASSERT_GT(a.committed, 0u);
    EXPECT_EQ(a.committed, b.committed);
    EXPECT_EQ(a.sim_events, b.sim_events);
    EXPECT_EQ(a.counters, b.counters);
    EXPECT_EQ(a.histograms, b.histograms);
    if (p.replication.enabled()) {
      EXPECT_GE(a.counters.at("repl.promotions"), 1u);
      EXPECT_GT(a.counters.at("repl.installs"), 0u);
    } else {
      EXPECT_GT(a.counters.at("routing.keys_migrated"), 0u);
      EXPECT_EQ(a.counters.at("routing.keys_migrated"),
                a.counters.at("routing.keys_migrated_out"));
    }
  }
}

}  // namespace
}  // namespace faastcc::harness
