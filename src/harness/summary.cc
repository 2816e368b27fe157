#include "harness/summary.h"

namespace faastcc::harness {

SummaryStats summarize(const RunResult& r) {
  SummaryStats s;
  s.latency_med_ms = r.metrics.dag_latency_ms.median();
  s.latency_p99_ms = r.metrics.dag_latency_ms.p99();
  s.throughput = r.throughput;
  s.metadata_med = r.metrics.metadata_bytes.median();
  s.metadata_p99 = r.metrics.metadata_bytes.p99();
  s.rounds_med = r.metrics.storage_rounds.median();
  s.rounds_p99 = r.metrics.storage_rounds.p99();
  s.read_bytes_med = r.metrics.storage_read_bytes.median();
  s.read_bytes_p99 = r.metrics.storage_read_bytes.p99();
  s.cache_bytes = static_cast<double>(r.cache_bytes);
  s.cache_entries = static_cast<double>(r.cache_entries);
  s.abort_rate = r.metrics.abort_rate();
  s.hit_rate = r.metrics.cache_hit_rate();
  s.committed = static_cast<double>(r.committed);
  s.duration_s = r.duration_s;
  const auto median_of = [&](std::string_view name) {
    const Samples* h = r.metrics.find_histogram(name);
    return h != nullptr ? h->median() : 0.0;
  };
  s.breakdown_queue_ms = median_of("breakdown.queue_ms");
  s.breakdown_compute_ms = median_of("breakdown.compute_ms");
  s.breakdown_storage_ms = median_of("breakdown.storage_ms");
  s.breakdown_network_ms = median_of("breakdown.network_ms");
  if (const Samples* lag = r.metrics.find_histogram("stab.stable_lag_us");
      lag != nullptr && !lag->empty()) {
    s.stab_lag_med_us = lag->median();
    s.stab_lag_p99_us = lag->p99();
  }
  const auto counter_of = [&](const char* name) -> double {
    const Counter* c = r.metrics.find_counter(name);
    return c != nullptr ? static_cast<double>(c->value()) : 0;
  };
  s.stab_stale_drops = counter_of("stab.stale_drops");
  s.stab_drops_unknown_member = counter_of("stab.drops.unknown_member");
  s.stab_drops_stale_report = counter_of("stab.drops.stale_report");
  s.stab_drops_foreign_child = counter_of("stab.drops.foreign_child");
  s.stab_drops_stale_broadcast = counter_of("stab.drops.stale_broadcast");
  s.routing_active_partitions = counter_of("routing.active_partitions");
  s.routing_epoch = counter_of("routing.epoch");
  return s;
}

}  // namespace faastcc::harness
