// End-to-end tests: full clusters of all three systems running the
// paper's workload, plus TCC property checks on the FaaSTCC system.
#include <gtest/gtest.h>

#include "harness/cluster.h"

namespace faastcc::harness {
namespace {

ClusterParams small_params(SystemKind system) {
  ClusterParams p;
  p.system = system;
  p.partitions = 4;
  p.compute_nodes = 4;
  p.clients = 4;
  p.dags_per_client = 25;
  p.workload.num_keys = 2000;
  p.workload.zipf = 1.0;
  p.workload.dag_size = 4;
  return p;
}

TEST(Integration, FaasTccRunsToCompletion) {
  Cluster cluster(small_params(SystemKind::kFaasTcc));
  const RunResult r = cluster.run();
  EXPECT_EQ(r.committed + 0, 4u * 25u) << "all DAGs should commit";
  EXPECT_GT(r.metrics.dag_latency_ms.count(), 0u);
  EXPECT_GT(r.throughput, 0.0);
}

TEST(Integration, HydroCacheRunsToCompletion) {
  Cluster cluster(small_params(SystemKind::kHydroCache));
  const RunResult r = cluster.run();
  // HydroCache may abort some attempts but retries should commit nearly
  // all transactions.
  EXPECT_GE(r.committed, 4u * 25u * 9 / 10);
  EXPECT_GT(r.metrics.dag_latency_ms.count(), 0u);
}

TEST(Integration, CloudburstRunsToCompletion) {
  Cluster cluster(small_params(SystemKind::kCloudburst));
  const RunResult r = cluster.run();
  EXPECT_EQ(r.committed, 4u * 25u);
}

TEST(Integration, FaasTccMetadataIsConstant16Bytes) {
  Cluster cluster(small_params(SystemKind::kFaasTcc));
  const RunResult r = cluster.run();
  ASSERT_GT(r.metrics.metadata_bytes.count(), 0u);
  EXPECT_DOUBLE_EQ(r.metrics.metadata_bytes.min(), 16.0);
  EXPECT_DOUBLE_EQ(r.metrics.metadata_bytes.max(), 16.0);
}

TEST(Integration, FaasTccSingleStorageRoundMedian) {
  Cluster cluster(small_params(SystemKind::kFaasTcc));
  const RunResult r = cluster.run();
  ASSERT_GT(r.metrics.storage_rounds.count(), 0u);
  EXPECT_DOUBLE_EQ(r.metrics.storage_rounds.median(), 1.0);
}

TEST(Integration, DeterministicAcrossRuns) {
  auto run_once = [] {
    Cluster cluster(small_params(SystemKind::kFaasTcc));
    return cluster.run();
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.metrics.dag_latency_ms.raw(), b.metrics.dag_latency_ms.raw());
}

}  // namespace
}  // namespace faastcc::harness
