#include "harness/configs.h"

#include <algorithm>
#include <cstdio>

namespace faastcc::harness {

namespace {

// Every fault matrix stays inside the protocol's operating envelope
// (coordinators retry past loss; prepare TTLs comfortably exceed the
// retry horizon), so under any non-chaos config a consistency violation
// is always a bug, never tuning noise.
const std::vector<NamedConfig> kConfigs = {
    {"clean", "no faults (oracle sanity baseline)", false, "{}"},
    {"lossy", "2% loss + 1% duplication", false,
     R"({"faults": {"loss_prob": 0.02, "dup_prob": 0.01}})"},
    {"spikes-ttl", "delay spikes + short prepare TTL", false,
     R"({"faults": {"loss_prob": 0.01, "delay_spike_prob": 0.01,
                    "delay_spike_us": 20000},
         "tcc": {"prepare_ttl_us": 250000}})"},
    {"tiny-cache", "8-entry caches, hot keys, loss", false,
     R"({"cluster": {"cache_capacity": 8}, "workload": {"zipf": 1.2},
         "faults": {"loss_prob": 0.01}})"},
    // Partition 1 (addr 101) blacks out mid-run, then cache 0 (addr 3000);
    // both well inside the measured phase (warmup 250 ms).
    {"crashy", "partition + cache crash windows", false,
     R"({"faults": {"crashes": [
           {"addr": 101, "from_us": 300000, "until_us": 360000},
           {"addr": 3000, "from_us": 420000, "until_us": 470000}],
         "dag_timeout_us": 500000}})"},
    // Leader of partition 1 (addr 101) goes dark at 300 ms and never
    // returns: its follower (addr 6004) must win promotion, seal the
    // handoff floor and take over the slot.  Commit-acked writes from
    // before the kill must survive — the oracle's durability check.
    {"kill-leader", "replicated slots; leader killed for good mid-run", false,
     R"({"replication": {"factor": 1},
         "faults": {"crashes": [
           {"addr": 101, "from_us": 300000, "until_us": 3600000000}],
         "dag_timeout_us": 500000}})"},
    // Two followers per slot: loss exercises demote-and-backfill,
    // duplication exercises the at-most-once frame dedup, and the kill
    // exercises promotion arbitration between the two candidates.
    {"kill-leader-lossy",
     "leader kill + 2% loss + 1% duplication (replication stream replay)",
     false,
     R"({"replication": {"factor": 2},
         "faults": {"crashes": [
           {"addr": 101, "from_us": 300000, "until_us": 3600000000}],
         "loss_prob": 0.02, "dup_prob": 0.01, "dag_timeout_us": 500000}})"},
    {"elastic", "mid-run scale-out +2 partitions, no faults", false,
     R"({"elastic": {"add_partitions": 2, "at_us": 300000}})"},
    {"elastic-lossy", "scale-out under 2% loss + 1% duplication", false,
     R"({"elastic": {"add_partitions": 2, "at_us": 300000},
         "faults": {"loss_prob": 0.02, "dup_prob": 0.01}})"},
    {"elastic-dup", "scale-out under 3% duplication (handoff replay paths)",
     false,
     R"({"elastic": {"add_partitions": 2, "at_us": 300000},
         "faults": {"dup_prob": 0.03}})"},
    // Fanout 2 over the fuzzer's small cells gives the tree real depth
    // (interior nodes relaying folds), exercising up/down staleness.
    {"tree-lossy",
     "tree stabilization + coalesced pushes under 2% loss + 1% duplication",
     false,
     R"({"tcc": {"stabilization_topology": "tree", "tree_fanout": 2,
                 "push_coalescing": true},
         "faults": {"loss_prob": 0.02, "dup_prob": 0.01}})"},
    // Joiners land below node 1 (fanout 2), turning a leaf interior
    // mid-run: membership-tagged folds must re-arm the barrier.
    {"tree-elastic",
     "tree stabilization, scale-out +2 partitions under 1% loss", false,
     R"({"tcc": {"stabilization_topology": "tree", "tree_fanout": 2,
                 "push_coalescing": true},
         "elastic": {"add_partitions": 2, "at_us": 300000},
         "faults": {"loss_prob": 0.01}})"},
    {"elastic-in", "mid-run scale-in -2 partitions, no faults", false,
     R"({"elastic": {"remove_partitions": 2, "remove_at_us": 300000}})"},
    {"elastic-in-lossy", "scale-in under 2% loss + 1% duplication", false,
     R"({"elastic": {"remove_partitions": 2, "remove_at_us": 300000},
         "faults": {"loss_prob": 0.02, "dup_prob": 0.01}})"},
    // A deep trough (think >> DAG latency) is what lets the window p99
    // fall back under the low-water mark so the scale-in leg fires.  The
    // 2..6 partition bounds bracket the 3- and 4-partition cells the
    // fuzzer and plans/autoscale.json run it on; resolve() rejects a base
    // they do not bracket.
    {"autoscale-spike",
     "2-5 partitions, bursty load; autoscaler (2..6) rides the spike out "
     "and back in",
     false,
     R"({"workload": {"pattern": "bursty", "pattern_period_us": 600000,
                      "think_time_us": 20000},
         "autoscale": {"max_partitions": 6, "min_partitions": 2,
                       "check_period_us": 50000, "high_p99_ms": 8.0,
                       "low_p99_ms": 6.0, "breach_checks": 2,
                       "cooldown_us": 300000}})"},
    {"chaos-lost-ack", "REGRESSION: commits acked without install", true,
     R"({"tcc": {"chaos_drop_install": true}})"},
    {"chaos-prewarm", "REGRESSION: prewarm entries open unsubscribed", true,
     R"({"faastcc_cache": {"chaos_prewarm_open": true},
         "cluster": {"cache_capacity": 32}, "workload": {"zipf": 1.2}})"},
};

}  // namespace

const std::vector<NamedConfig>& all_configs() { return kConfigs; }

const NamedConfig* find_config(std::string_view name) {
  for (const NamedConfig& c : kConfigs) {
    if (name == c.name) return &c;
  }
  return nullptr;
}

void print_configs() {
  std::printf("named configs:\n");
  for (const NamedConfig& c : kConfigs) {
    std::printf("  %-18s %s\n  %-18s %s\n", c.name, c.what, "",
                json::to_text(json::parse(c.overlay), /*compact=*/true)
                    .c_str());
  }
}

void apply_fuzz_shape(ClusterParams& p, uint64_t seed) {
  switch (seed % 3) {
    case 0:  // short chains, uniform-ish keys
      p.workload.dag_size = 2;
      p.workload.zipf = 0.8;
      break;
    case 1:  // deep chains (long dependency tails)
      p.workload.dag_size = 6;
      break;
    default:  // static transactions on a hot key set
      p.workload.dag_size = 4;
      p.workload.zipf = std::max(p.workload.zipf, 1.1);
      p.workload.static_txns = true;
      break;
  }
}

RunSpec fuzz_spec(std::string_view config, uint64_t seed, int clients,
                  int dags) {
  RunSpec spec;
  ClusterParams& p = spec.params;
  p.system = SystemKind::kFaasTcc;
  p.seed = seed;
  p.partitions = 3;
  p.compute_nodes = 2;
  p.clients = static_cast<size_t>(clients);
  p.dags_per_client = dags;
  p.workload.num_keys = 64;  // hot key space: maximal contention
  p.workload.zipf = 1.0;
  p.check_consistency = true;
  apply_fuzz_shape(p, seed);
  spec.config = config;
  return spec;
}

}  // namespace faastcc::harness
