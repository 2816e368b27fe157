// Tests for the experiment harness: cluster assembly, metric summaries and
// table formatting.
#include <gtest/gtest.h>

#include "harness/summary.h"
#include "harness/table.h"

namespace faastcc::harness {
namespace {

TEST(Summary, SummarizeExtractsPercentilesAndRates) {
  RunResult r;
  for (int i = 1; i <= 100; ++i) {
    r.metrics.dag_latency_ms.add(i);
    r.metrics.metadata_bytes.add(16);
  }
  r.metrics.dag_attempts.inc(10);
  r.metrics.dag_aborts.inc(1);
  r.metrics.cache_lookups.inc(4);
  r.metrics.cache_hits.inc(3);
  r.throughput = 123;
  r.committed = 99;
  r.cache_bytes = 1024;
  const SummaryStats s = summarize(r);
  EXPECT_NEAR(s.latency_med_ms, 50.5, 1e-9);
  EXPECT_DOUBLE_EQ(s.metadata_med, 16);
  EXPECT_DOUBLE_EQ(s.throughput, 123);
  EXPECT_DOUBLE_EQ(s.committed, 99);
  EXPECT_NEAR(s.abort_rate, 0.1, 1e-9);
  EXPECT_NEAR(s.hit_rate, 0.75, 1e-9);
  EXPECT_DOUBLE_EQ(s.cache_bytes, 1024);
}

TEST(Harness, PaperDefaultsMatchSection61) {
  const ClusterParams p;
  EXPECT_EQ(p.partitions, 16u);        // 16 Anna partitions
  EXPECT_EQ(p.compute_nodes, 10u);     // 10 machines of Cloudburst pods
  EXPECT_EQ(p.node.executors, 3);      // 3 executors per pod
  EXPECT_EQ(p.clients, 16u);           // 16 client threads
  EXPECT_EQ(p.dags_per_client, 1000);  // 1000 DAGs per client
  EXPECT_EQ(p.workload.num_keys, 100000u);
  EXPECT_EQ(p.workload.value_size, 8u);
  EXPECT_EQ(p.workload.dag_size, 6);
  EXPECT_EQ(p.tcc.push_period, milliseconds(50));  // cache refresh period
}

TEST(Harness, SystemNames) {
  EXPECT_STREQ(system_name(SystemKind::kFaasTcc), "FaaSTCC");
  EXPECT_STREQ(system_name(SystemKind::kHydroCache), "HydroCache");
  EXPECT_STREQ(system_name(SystemKind::kCloudburst), "Cloudburst");
}

TEST(Table, FormatsNumbers) {
  EXPECT_EQ(fmt(1.25, 1), "1.2");
  EXPECT_EQ(fmt(1.25, 2), "1.25");
  EXPECT_EQ(fmt(1000.0, 0), "1000");
  EXPECT_EQ(fmt_bytes(100), "100 B");
  EXPECT_EQ(fmt_bytes(2048), "2.0 KiB");
  EXPECT_EQ(fmt_bytes(3.5 * 1024 * 1024), "3.5 MiB");
}

TEST(Cluster, TopologyRoutesKeysToPartitions) {
  ClusterParams p;
  p.partitions = 4;
  p.clients = 0;
  p.workload.num_keys = 10;
  Cluster cluster(p);
  const auto topo = cluster.tcc_topology();
  EXPECT_EQ(topo.num_partitions(), 4u);
  for (Key k = 0; k < 10; ++k) {
    EXPECT_EQ(topo.partition_of(k), k % 4);
    EXPECT_EQ(topo.address_of(k), topo.partitions[k % 4]);
  }
}

TEST(Cluster, PreloadPopulatesEveryPartition) {
  ClusterParams p;
  p.partitions = 4;
  p.clients = 0;
  p.workload.num_keys = 100;
  p.prewarm_caches = false;
  Cluster cluster(p);
  cluster.start();
  size_t total = 0;
  for (auto& part : cluster.tcc_partitions()) {
    EXPECT_EQ(part->store().num_keys(), 25u);
    total += part->store().num_keys();
  }
  EXPECT_EQ(total, 100u);
}

TEST(Cluster, PrewarmFillsCaches) {
  ClusterParams p;
  p.partitions = 2;
  p.compute_nodes = 3;
  p.clients = 0;
  p.workload.num_keys = 50;
  p.prewarm_caches = true;
  Cluster cluster(p);
  cluster.start();
  for (auto& cache : cluster.faastcc_caches()) {
    EXPECT_EQ(cache->entry_count(), 50u);
  }
}

TEST(Cluster, BoundedPrewarmRespectsCapacity) {
  ClusterParams p;
  p.partitions = 2;
  p.compute_nodes = 2;
  p.clients = 0;
  p.workload.num_keys = 50;
  p.cache_capacity = 10;
  p.prewarm_caches = true;
  Cluster cluster(p);
  cluster.start();
  for (auto& cache : cluster.faastcc_caches()) {
    EXPECT_EQ(cache->entry_count(), 10u);
    // Hottest keys first: key 0 is rank 0 of the Zipf distribution.
    EXPECT_TRUE(cache->has(0));
    EXPECT_FALSE(cache->has(49));
  }
}

}  // namespace
}  // namespace faastcc::harness
