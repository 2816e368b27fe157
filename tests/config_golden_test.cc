// Golden pin of what every named config does to a run.
//
// For each base spec a config is resolved against (the default spec, the
// fuzzer's base at one seed per workload shape, and plans/autoscale.json's
// base), each config's resolved spec is recorded as the RunSpec fields it
// changes, one "group.key=value" per field in canonical-JSON order.  A
// change to how configs are described or applied must leave these lines
// as they are.
#include <gtest/gtest.h>

#include <string>

#include "harness/configs.h"
#include "harness/run_spec.h"

namespace faastcc::harness {
namespace {

// The fields whose canonical JSON differs between two specs.
std::string changed_fields(const RunSpec& base, const RunSpec& other) {
  const json::Value a = json::parse(to_json(base));
  const json::Value b = json::parse(to_json(other));
  std::string out;
  auto compare = [&](const std::string& path, const json::Value& x,
                     const json::Value& y) {
    const std::string vy = json::to_text(y, /*compact=*/true);
    if (json::to_text(x, /*compact=*/true) != vy) {
      out += " " + path + "=" + vy;
    }
  };
  for (size_t i = 0; i < a.fields.size(); ++i) {
    const auto& [key, x] = a.fields[i];
    const json::Value& y = b.fields[i].second;
    if (!x.is_object()) {
      compare(key, x, y);
      continue;
    }
    for (size_t j = 0; j < x.fields.size(); ++j) {
      compare(key + "." + x.fields[j].first, x.fields[j].second,
              y.fields[j].second);
    }
  }
  return out;
}

// One line per named config: "<name>:" and the fields it changes, or
// "<name>: error" and resolve()'s message when the base rejects it.
std::string resolved_configs(const RunSpec& base) {
  std::string out;
  for (const NamedConfig& c : all_configs()) {
    RunSpec with = base;
    with.config = c.name;
    RunSpec resolved;
    try {
      resolved.params = with.resolve();
    } catch (const SpecError& e) {
      out += std::string(c.name) + ": error " + e.what() + "\n";
      continue;
    }
    out += std::string(c.name) + ":" + changed_fields(base, resolved) + "\n";
  }
  return out;
}

// tcc_fuzz's run shape at its default 4 clients x 12 DAGs.
RunSpec fuzz_base(uint64_t seed) { return fuzz_spec("", seed, 4, 12); }

TEST(ConfigGolden, DefaultBase) {
  EXPECT_EQ(resolved_configs(RunSpec{}), R"(clean:
lossy: faults.loss_prob=0.02 faults.dup_prob=0.01
spikes-ttl: tcc.prepare_ttl_us=250000 faults.loss_prob=0.01 faults.delay_spike_prob=0.01 faults.delay_spike_us=20000
tiny-cache: cluster.cache_capacity=8 workload.zipf=1.2 faults.loss_prob=0.01
crashy: faults.dag_timeout_us=500000 faults.crashes=[{"addr":101,"from_us":300000,"until_us":360000},{"addr":3000,"from_us":420000,"until_us":470000}]
kill-leader: faults.dag_timeout_us=500000 faults.crashes=[{"addr":101,"from_us":300000,"until_us":3600000000}] replication.factor=1
kill-leader-lossy: faults.loss_prob=0.02 faults.dup_prob=0.01 faults.dag_timeout_us=500000 faults.crashes=[{"addr":101,"from_us":300000,"until_us":3600000000}] replication.factor=2
elastic: elastic.add_partitions=2 elastic.at_us=300000
elastic-lossy: faults.loss_prob=0.02 faults.dup_prob=0.01 elastic.add_partitions=2 elastic.at_us=300000
elastic-dup: faults.dup_prob=0.029999999999999999 elastic.add_partitions=2 elastic.at_us=300000
tree-lossy: tcc.stabilization_topology="tree" tcc.tree_fanout=2 faults.loss_prob=0.02 faults.dup_prob=0.01
tree-elastic: tcc.stabilization_topology="tree" tcc.tree_fanout=2 faults.loss_prob=0.01 elastic.add_partitions=2 elastic.at_us=300000
elastic-in: elastic.remove_partitions=2 elastic.remove_at_us=300000
elastic-in-lossy: faults.loss_prob=0.02 faults.dup_prob=0.01 elastic.remove_partitions=2 elastic.remove_at_us=300000
autoscale-spike: error spec.autoscale.max_partitions: 6 must exceed cluster.partitions (16)
chaos-lost-ack: tcc.chaos_drop_install=true
chaos-prewarm: cluster.cache_capacity=32 workload.zipf=1.2 faastcc_cache.chaos_prewarm_open=true
)");
}

TEST(ConfigGolden, FuzzBaseOneSeedPerShape) {
  // The configs touch no field the shapes set, so one block serves all
  // three shapes.
  const std::string golden = R"(clean:
lossy: faults.loss_prob=0.02 faults.dup_prob=0.01
spikes-ttl: tcc.prepare_ttl_us=250000 faults.loss_prob=0.01 faults.delay_spike_prob=0.01 faults.delay_spike_us=20000
tiny-cache: cluster.cache_capacity=8 workload.zipf=1.2 faults.loss_prob=0.01
crashy: faults.dag_timeout_us=500000 faults.crashes=[{"addr":101,"from_us":300000,"until_us":360000},{"addr":3000,"from_us":420000,"until_us":470000}]
kill-leader: faults.dag_timeout_us=500000 faults.crashes=[{"addr":101,"from_us":300000,"until_us":3600000000}] replication.factor=1
kill-leader-lossy: faults.loss_prob=0.02 faults.dup_prob=0.01 faults.dag_timeout_us=500000 faults.crashes=[{"addr":101,"from_us":300000,"until_us":3600000000}] replication.factor=2
elastic: elastic.add_partitions=2 elastic.at_us=300000
elastic-lossy: faults.loss_prob=0.02 faults.dup_prob=0.01 elastic.add_partitions=2 elastic.at_us=300000
elastic-dup: faults.dup_prob=0.029999999999999999 elastic.add_partitions=2 elastic.at_us=300000
tree-lossy: tcc.stabilization_topology="tree" tcc.tree_fanout=2 faults.loss_prob=0.02 faults.dup_prob=0.01
tree-elastic: tcc.stabilization_topology="tree" tcc.tree_fanout=2 faults.loss_prob=0.01 elastic.add_partitions=2 elastic.at_us=300000
elastic-in: elastic.remove_partitions=2 elastic.remove_at_us=300000
elastic-in-lossy: faults.loss_prob=0.02 faults.dup_prob=0.01 elastic.remove_partitions=2 elastic.remove_at_us=300000
autoscale-spike: workload.pattern="bursty" workload.pattern_period_us=600000 workload.think_time_us=20000 autoscale.max_partitions=6 autoscale.min_partitions=2 autoscale.check_period_us=50000 autoscale.high_p99_ms=8 autoscale.low_p99_ms=6 autoscale.breach_checks=2 autoscale.cooldown_us=300000
chaos-lost-ack: tcc.chaos_drop_install=true
chaos-prewarm: cluster.cache_capacity=32 workload.zipf=1.2 faastcc_cache.chaos_prewarm_open=true
)";
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    EXPECT_EQ(resolved_configs(fuzz_base(seed)), golden) << "seed " << seed;
  }
}

TEST(ConfigGolden, AutoscalePlanBase) {
  // plans/autoscale.json's "base".
  const RunSpec base = spec_from_text(R"({
    "system": "faastcc",
    "cluster": {"partitions": 4, "compute_nodes": 2, "clients": 12,
                "dags_per_client": 250},
    "workload": {"num_keys": 500, "dag_size": 3},
    "run": {"check_consistency": true}
  })");
  EXPECT_EQ(resolved_configs(base), R"(clean:
lossy: faults.loss_prob=0.02 faults.dup_prob=0.01
spikes-ttl: tcc.prepare_ttl_us=250000 faults.loss_prob=0.01 faults.delay_spike_prob=0.01 faults.delay_spike_us=20000
tiny-cache: cluster.cache_capacity=8 workload.zipf=1.2 faults.loss_prob=0.01
crashy: faults.dag_timeout_us=500000 faults.crashes=[{"addr":101,"from_us":300000,"until_us":360000},{"addr":3000,"from_us":420000,"until_us":470000}]
kill-leader: faults.dag_timeout_us=500000 faults.crashes=[{"addr":101,"from_us":300000,"until_us":3600000000}] replication.factor=1
kill-leader-lossy: faults.loss_prob=0.02 faults.dup_prob=0.01 faults.dag_timeout_us=500000 faults.crashes=[{"addr":101,"from_us":300000,"until_us":3600000000}] replication.factor=2
elastic: elastic.add_partitions=2 elastic.at_us=300000
elastic-lossy: faults.loss_prob=0.02 faults.dup_prob=0.01 elastic.add_partitions=2 elastic.at_us=300000
elastic-dup: faults.dup_prob=0.029999999999999999 elastic.add_partitions=2 elastic.at_us=300000
tree-lossy: tcc.stabilization_topology="tree" tcc.tree_fanout=2 faults.loss_prob=0.02 faults.dup_prob=0.01
tree-elastic: tcc.stabilization_topology="tree" tcc.tree_fanout=2 faults.loss_prob=0.01 elastic.add_partitions=2 elastic.at_us=300000
elastic-in: elastic.remove_partitions=2 elastic.remove_at_us=300000
elastic-in-lossy: faults.loss_prob=0.02 faults.dup_prob=0.01 elastic.remove_partitions=2 elastic.remove_at_us=300000
autoscale-spike: workload.pattern="bursty" workload.pattern_period_us=600000 workload.think_time_us=20000 autoscale.max_partitions=6 autoscale.min_partitions=2 autoscale.check_period_us=50000 autoscale.high_p99_ms=8 autoscale.low_p99_ms=6 autoscale.breach_checks=2 autoscale.cooldown_us=300000
chaos-lost-ack: tcc.chaos_drop_install=true
chaos-prewarm: cluster.cache_capacity=32 workload.zipf=1.2 faastcc_cache.chaos_prewarm_open=true
)");
}

}  // namespace
}  // namespace faastcc::harness
