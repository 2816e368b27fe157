// Aggregated per-run statistics: the percentiles and rates a run record
// reports, reduced from a RunResult's metrics.
#pragma once

#include "harness/cluster.h"

namespace faastcc::harness {

struct SummaryStats {
  double latency_med_ms = 0;
  double latency_p99_ms = 0;
  double throughput = 0;
  double metadata_med = 0;
  double metadata_p99 = 0;
  double rounds_med = 0;
  double rounds_p99 = 0;
  double read_bytes_med = 0;
  double read_bytes_p99 = 0;
  double cache_bytes = 0;
  double cache_entries = 0;
  double abort_rate = 0;
  double hit_rate = 0;
  double committed = 0;
  double duration_s = 0;
  // Median per-DAG latency breakdown (ms); all zero unless tracing was
  // enabled for the run (the breakdown histograms are trace-derived).
  double breakdown_queue_ms = 0;
  double breakdown_compute_ms = 0;
  double breakdown_storage_ms = 0;
  double breakdown_network_ms = 0;
  // Stabilization: how far the global stable time trails real time at each
  // gossip round (µs), and observations dropped for membership staleness.
  // Zero for systems without a stabilizer (hydro, ev).
  double stab_lag_med_us = 0;
  double stab_lag_p99_us = 0;
  // Aggregate drop count plus the per-reason split (Stabilizer::DropReason);
  // the aggregate always equals the sum of the four.
  double stab_stale_drops = 0;
  double stab_drops_unknown_member = 0;
  double stab_drops_stale_report = 0;
  double stab_drops_foreign_child = 0;
  double stab_drops_stale_broadcast = 0;
  // Routing-plane gauges at end of run: partition count and table epoch.
  // Zero for runs without a reconfiguration engine (the table never moved).
  double routing_active_partitions = 0;
  double routing_epoch = 0;
};

SummaryStats summarize(const RunResult& result);

}  // namespace faastcc::harness
