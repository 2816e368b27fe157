// Tests for the experiment harness: cluster assembly, metric summaries and
// table formatting.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "harness/run_spec.h"
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
  r.metrics.counter("net.lost").inc(2);
  r.cache_bytes = 1024;
  const SummaryStats s = summarize(r);
  EXPECT_NEAR(s.latency_med_ms, 50.5, 1e-9);
  EXPECT_DOUBLE_EQ(s.metadata_med, 16);
  EXPECT_NEAR(s.abort_rate, 0.1, 1e-9);
  EXPECT_NEAR(s.hit_rate, 0.75, 1e-9);
  EXPECT_DOUBLE_EQ(s.cache_bytes, 1024);
  EXPECT_DOUBLE_EQ(s.net_lost, 2);
  EXPECT_DOUBLE_EQ(s.stab_lag_med_us, 0);  // no stabilizer histogram

  // The record's summary and net objects carry one key per kSummaryFields
  // row, in table order.
  RunOutput out;
  out.result = r;
  out.summary = s;
  const json::Value record = json::parse(run_output_to_json(out));
  std::vector<std::string> summary_keys, net_keys, table_keys;
  for (const auto& [key, value] : record.find("summary")->fields) {
    summary_keys.push_back(key);
  }
  for (const auto& [key, value] : record.find("net")->fields) {
    net_keys.push_back(key);
  }
  for (const SummaryField& f : kSummaryFields) table_keys.push_back(f.key);
  std::vector<std::string> record_keys = summary_keys;
  record_keys.insert(record_keys.end(), net_keys.begin(), net_keys.end());
  EXPECT_EQ(record_keys, table_keys);
  EXPECT_EQ(std::set<std::string>(table_keys.begin(), table_keys.end()).size(),
            table_keys.size());

  // The keys the record carried before the field table keep their order;
  // later keys are appended to the summary object.
  const std::vector<std::string> prior_summary = {
      "latency_med_ms",
      "latency_p99_ms",
      "metadata_med",
      "metadata_p99",
      "rounds_med",
      "rounds_p99",
      "read_bytes_med",
      "read_bytes_p99",
      "cache_bytes",
      "cache_entries",
      "abort_rate",
      "hit_rate",
      "stab_lag_med_us",
      "stab_lag_p99_us",
      "stab_stale_drops",
      "stab_drops_unknown_member",
      "stab_drops_stale_report",
      "stab_drops_foreign_child",
      "stab_drops_stale_broadcast",
      "routing_active_partitions",
      "routing_epoch",
  };
  const std::vector<std::string> prior_net = {
      "lost",         "duplicated",  "delay_spikes", "crash_dropped",
      "rpc_timeouts", "rpc_retries", "dag_timeouts",
  };
  ASSERT_GE(summary_keys.size(), prior_summary.size());
  EXPECT_EQ(std::vector<std::string>(
                summary_keys.begin(),
                summary_keys.begin() +
                    static_cast<std::ptrdiff_t>(prior_summary.size())),
            prior_summary);
  EXPECT_EQ(net_keys, prior_net);
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
