// Tests for the experiment harness: cluster assembly, metric summaries and
// table formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "harness/run_spec.h"
#include "harness/table.h"

namespace faastcc::harness {
namespace {

// The routing gauges describe the table a FaaSTCC cluster runs on from
// the start, not only after its first reconfiguration.  The baselines
// have no routing table and report 0.
TEST(Summary, RoutingGaugesDescribeTheInitialTable) {
  const char* spec = R"({"system": "%s",
      "cluster": {"partitions": 6, "compute_nodes": 2, "clients": 2,
                  "dags_per_client": 5},
      "workload": {"num_keys": 200}})";
  char text[256];
  std::snprintf(text, sizeof(text), spec, "faastcc");
  const RunOutput faastcc = run_one(spec_from_text(text));
  EXPECT_GT(faastcc.result.committed, 0u);
  EXPECT_DOUBLE_EQ(faastcc.summary.routing_active_partitions, 6);
  EXPECT_DOUBLE_EQ(faastcc.summary.routing_epoch, 1);
  std::snprintf(text, sizeof(text), spec, "hydrocache");
  const RunOutput hydro = run_one(spec_from_text(text));
  EXPECT_DOUBLE_EQ(hydro.summary.routing_active_partitions, 0);
  EXPECT_DOUBLE_EQ(hydro.summary.routing_epoch, 0);
}

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

// The per-cache build the one-pass prewarm replaced: each cache fills its
// table key by key and subscribes each key as it installs it.
void reference_prewarm(Cluster& c) {
  const ClusterParams& p = c.params();
  const Value value(p.workload.value_size, 'x');
  const uint64_t limit =
      std::min<uint64_t>(p.workload.num_keys, p.cache_capacity);
  const bool chaos = p.faastcc_cache.chaos_prewarm_open;
  auto notifier = [&](Key k) {
    return c.ev_replicas()[(k % p.partitions) * p.ev_replicas].get();
  };
  for (auto& cache : c.faastcc_caches()) {
    cache->reserve(limit);
    for (Key k = 0; k < limit; ++k) {
      storage::TccPartition& part = *c.tcc_partitions()[k % p.partitions];
      if (!chaos) part.add_subscribers(k, std::vector{cache->address()});
      cache->prewarm(storage::VersionedValue{k, value, Timestamp(1, 0, 0),
                                             part.stable_time()},
                     /*subscribed=*/!chaos);
    }
  }
  for (auto& cache : c.hydro_caches()) {
    cache->reserve(limit);
    for (Key k = 0; k < limit; ++k) {
      cache->prewarm(k, value, 1, 0);
      notifier(k)->add_subscribers(k, std::vector{cache->address()});
    }
  }
  for (auto& cache : c.plain_caches()) {
    cache->reserve(limit);
    for (Key k = 0; k < limit; ++k) {
      cache->prewarm(k, value);
      notifier(k)->add_subscribers(k, std::vector{cache->address()});
    }
  }
}

template <typename C>
void expect_same_caches(const std::vector<std::unique_ptr<C>>& got,
                        const std::vector<std::unique_ptr<C>>& want,
                        Key keys) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i]->entry_count(), want[i]->entry_count());
    EXPECT_EQ(got[i]->bytes(), want[i]->bytes());
    EXPECT_EQ(got[i]->least_recent(), want[i]->least_recent());
    for (Key k = 0; k < keys; ++k) EXPECT_EQ(got[i]->has(k), want[i]->has(k));
  }
}

std::vector<net::Address> list_of(std::span<const net::Address> subs) {
  return std::vector<net::Address>(subs.begin(), subs.end());
}

void expect_exact_lists(const storage::SubscriberTable& got,
                        const storage::SubscriberTable& want, Key keys) {
  for (Key k = 0; k < keys; ++k) {
    const auto g = got.find(k);
    const auto w = want.find(k);
    ASSERT_EQ(got.contains(k), want.contains(k)) << "key " << k;
    EXPECT_EQ(list_of(g), list_of(w)) << "key " << k;
    EXPECT_TRUE(std::is_sorted(g.begin(), g.end())) << "key " << k;
    // Equal sets share one block, across tables too.
    EXPECT_EQ(g.data(), w.data()) << "key " << k;
  }
}

// Prewarming in one sized pass leaves every cache table, subscriber list
// and subscriber count as the per-cache build does, and every prewarmed
// key holds the same shared subscriber block.
class PrewarmEquivalence
    : public ::testing::TestWithParam<std::pair<SystemKind, bool>> {};

TEST_P(PrewarmEquivalence, MatchesPerCacheBuild) {
  const auto [system, chaos] = GetParam();
  ClusterParams p;
  p.system = system;
  p.partitions = 4;
  p.compute_nodes = 3;
  p.clients = 0;
  p.workload.num_keys = 1000;
  p.faastcc_cache.chaos_prewarm_open = chaos;
  p.prewarm_caches = true;
  Cluster one_pass(p);
  one_pass.start();
  p.prewarm_caches = false;
  Cluster per_cache(p);
  per_cache.start();
  reference_prewarm(per_cache);

  const Key keys = p.workload.num_keys;
  size_t subscribed = 0;
  for (size_t i = 0; i < one_pass.tcc_partitions().size(); ++i) {
    const auto& got = *one_pass.tcc_partitions()[i];
    const auto& want = *per_cache.tcc_partitions()[i];
    expect_exact_lists(got.subscribers(), want.subscribers(), keys);
    EXPECT_EQ(got.subscriber_refs(), want.subscriber_refs());
    for (const auto& [cache, refs] : got.subscriber_refs()) subscribed += refs;
  }
  for (size_t i = 0; i < one_pass.ev_replicas().size(); ++i) {
    expect_exact_lists(one_pass.ev_replicas()[i]->subscribers(),
                       per_cache.ev_replicas()[i]->subscribers(), keys);
  }
  // Every prewarmed key is subscribed by every cache, ascending.
  std::vector<net::Address> caches;
  for (auto& c : one_pass.faastcc_caches()) caches.push_back(c->address());
  for (auto& c : one_pass.hydro_caches()) caches.push_back(c->address());
  for (auto& c : one_pass.plain_caches()) caches.push_back(c->address());
  std::sort(caches.begin(), caches.end());
  ASSERT_EQ(caches.size(), p.compute_nodes);
  const net::Address* block = nullptr;
  for (Key k = 0; k < keys; ++k) {
    const size_t part = k % p.partitions;
    const storage::SubscriberTable& table =
        system == SystemKind::kFaasTcc
            ? one_pass.tcc_partitions()[part]->subscribers()
            : one_pass.ev_replicas()[part * p.ev_replicas]->subscribers();
    const auto subs = table.find(k);
    if (chaos) {
      EXPECT_FALSE(table.contains(k));
      EXPECT_TRUE(subs.empty());
      continue;
    }
    EXPECT_EQ(list_of(subs), caches) << "key " << k;
    if (k == 0) block = subs.data();
    ASSERT_NE(block, nullptr);
    EXPECT_EQ(subs.data(), block) << "key " << k;
  }
  EXPECT_EQ(subscribed, system == SystemKind::kFaasTcc && !chaos
                            ? keys * caches.size()
                            : 0);

  expect_same_caches(one_pass.faastcc_caches(), per_cache.faastcc_caches(),
                     keys);
  expect_same_caches(one_pass.hydro_caches(), per_cache.hydro_caches(), keys);
  expect_same_caches(one_pass.plain_caches(), per_cache.plain_caches(), keys);
  for (size_t i = 0; i < one_pass.faastcc_caches().size(); ++i) {
    for (Key k = 0; k < keys; ++k) {
      const auto* g = one_pass.faastcc_caches()[i]->peek(k);
      const auto* w = per_cache.faastcc_caches()[i]->peek(k);
      ASSERT_NE(g, nullptr);
      ASSERT_NE(w, nullptr);
      EXPECT_EQ(g->value, w->value);
      EXPECT_EQ(g->ts, w->ts);
      EXPECT_EQ(g->promise, w->promise);
      EXPECT_EQ(g->open, w->open);
      EXPECT_EQ(g->sub_desired, w->sub_desired);
      EXPECT_EQ(g->sub_active, w->sub_active);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Systems, PrewarmEquivalence,
    ::testing::Values(std::make_pair(SystemKind::kFaasTcc, false),
                      std::make_pair(SystemKind::kFaasTcc, true),
                      std::make_pair(SystemKind::kHydroCache, false),
                      std::make_pair(SystemKind::kCloudburst, false)),
    [](const auto& info) {
      return std::string(system_name(info.param.first)) +
             (info.param.second ? "ChaosPrewarmOpen" : "");
    });

}  // namespace
}  // namespace faastcc::harness
