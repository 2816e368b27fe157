#include "harness/summary.h"

namespace faastcc::harness {
namespace {

using S = SummaryStats;
using Object = SummaryField::Object;
using Reduce = SummaryField::Reduce;
constexpr Object kSum = Object::kSummary;
constexpr Object kNet = Object::kNet;

constexpr SummaryField kRows[] = {
    {"latency_med_ms", &S::latency_med_ms, kSum, "client", "ms",
     Reduce::kMedian, "dag.latency_ms"},
    {"latency_p99_ms", &S::latency_p99_ms, kSum, "client", "ms",
     Reduce::kP99, "dag.latency_ms"},
    {"metadata_med", &S::metadata_med, kSum, "faas", "B", Reduce::kMedian,
     "dag.metadata_bytes"},
    {"metadata_p99", &S::metadata_p99, kSum, "faas", "B", Reduce::kP99,
     "dag.metadata_bytes"},
    {"rounds_med", &S::rounds_med, kSum, "storage", "rounds",
     Reduce::kMedian, "storage.rounds"},
    {"rounds_p99", &S::rounds_p99, kSum, "storage", "rounds", Reduce::kP99,
     "storage.rounds"},
    {"read_bytes_med", &S::read_bytes_med, kSum, "storage", "B",
     Reduce::kMedian, "storage.read_bytes"},
    {"read_bytes_p99", &S::read_bytes_p99, kSum, "storage", "B",
     Reduce::kP99, "storage.read_bytes"},
    {"cache_bytes", &S::cache_bytes, kSum, "cache", "B", Reduce::kCacheBytes},
    {"cache_entries", &S::cache_entries, kSum, "cache", "entries",
     Reduce::kCacheEntries},
    {"abort_rate", &S::abort_rate, kSum, "client", "ratio", Reduce::kRatio,
     "dag.aborts", "dag.attempts"},
    {"hit_rate", &S::hit_rate, kSum, "cache", "ratio", Reduce::kRatio,
     "cache.hits", "cache.lookups"},
    {"stab_lag_med_us", &S::stab_lag_med_us, kSum, "stab", "us",
     Reduce::kMedian, "stab.stable_lag_us"},
    {"stab_lag_p99_us", &S::stab_lag_p99_us, kSum, "stab", "us",
     Reduce::kP99, "stab.stable_lag_us"},
    {"stab_stale_drops", &S::stab_stale_drops, kSum, "stab", "count",
     Reduce::kValue, "stab.stale_drops"},
    {"stab_drops_unknown_member", &S::stab_drops_unknown_member, kSum, "stab",
     "count", Reduce::kValue, "stab.drops.unknown_member"},
    {"stab_drops_stale_report", &S::stab_drops_stale_report, kSum, "stab",
     "count", Reduce::kValue, "stab.drops.stale_report"},
    {"stab_drops_foreign_child", &S::stab_drops_foreign_child, kSum, "stab",
     "count", Reduce::kValue, "stab.drops.foreign_child"},
    {"stab_drops_stale_broadcast", &S::stab_drops_stale_broadcast, kSum,
     "stab", "count", Reduce::kValue, "stab.drops.stale_broadcast"},
    {"routing_active_partitions", &S::routing_active_partitions, kSum,
     "routing", "count", Reduce::kValue, "routing.active_partitions"},
    {"routing_epoch", &S::routing_epoch, kSum, "routing", "epoch",
     Reduce::kValue, "routing.epoch"},
    {"breakdown_queue_ms", &S::breakdown_queue_ms, kSum, "trace", "ms",
     Reduce::kMedian, "breakdown.queue_ms"},
    {"breakdown_compute_ms", &S::breakdown_compute_ms, kSum, "trace", "ms",
     Reduce::kMedian, "breakdown.compute_ms"},
    {"breakdown_storage_ms", &S::breakdown_storage_ms, kSum, "trace", "ms",
     Reduce::kMedian, "breakdown.storage_ms"},
    {"breakdown_network_ms", &S::breakdown_network_ms, kSum, "trace", "ms",
     Reduce::kMedian, "breakdown.network_ms"},
    {"stab_gossip_rounds", &S::stab_gossip_rounds, kSum, "stab", "count",
     Reduce::kValue, "stab.gossip_rounds"},
    {"stab_gossip_msgs", &S::stab_gossip_msgs, kSum, "stab", "count",
     Reduce::kValue, "stab.gossip_msgs"},
    {"repl_promotions", &S::repl_promotions, kSum, "repl", "count",
     Reduce::kValue, "repl.promotions"},
    {"routing_epoch_bumps", &S::routing_epoch_bumps, kSum, "routing",
     "count", Reduce::kValue, "routing.epoch_bumps"},
    {"lost", &S::net_lost, kNet, "net", "count", Reduce::kValue, "net.lost"},
    {"duplicated", &S::net_duplicated, kNet, "net", "count", Reduce::kValue,
     "net.duplicated"},
    {"delay_spikes", &S::net_delay_spikes, kNet, "net", "count",
     Reduce::kValue, "net.delay_spikes"},
    {"crash_dropped", &S::net_crash_dropped, kNet, "net", "count",
     Reduce::kValue, "net.crash_dropped"},
    {"rpc_timeouts", &S::net_rpc_timeouts, kNet, "net", "count",
     Reduce::kValue, "net.rpc_timeouts"},
    {"rpc_retries", &S::net_rpc_retries, kNet, "net", "count",
     Reduce::kValue, "net.rpc_retries"},
    {"dag_timeouts", &S::dag_timeouts, kNet, "client", "count",
     Reduce::kValue, "dag.timeouts"},
};

double reduce(const SummaryField& f, const RunResult& r) {
  const auto count = [&](const char* name) -> double {
    const Counter* c = r.metrics.find_counter(name);
    return c != nullptr ? static_cast<double>(c->value()) : 0;
  };
  switch (f.reduce) {
    case Reduce::kMedian:
    case Reduce::kP99: {
      const Samples* h = r.metrics.find_histogram(f.metric);
      if (h == nullptr) return 0;
      return f.reduce == Reduce::kMedian ? h->median() : h->p99();
    }
    case Reduce::kValue:
      return count(f.metric);
    case Reduce::kRatio: {
      const double per = count(f.per);
      return per == 0 ? 0.0 : count(f.metric) / per;
    }
    case Reduce::kCacheBytes:
      return static_cast<double>(r.cache_bytes);
    case Reduce::kCacheEntries:
      return static_cast<double>(r.cache_entries);
  }
  return 0;
}

}  // namespace

const std::span<const SummaryField> kSummaryFields{kRows};

SummaryStats summarize(const RunResult& r) {
  SummaryStats s;
  for (const SummaryField& f : kSummaryFields) s.*f.member = reduce(f, r);
  return s;
}

}  // namespace faastcc::harness
