// Aggregated per-run statistics: the percentiles, rates and counts a run
// record reports, reduced from a RunResult's metrics.
//
// kSummaryFields is the one description of those quantities.  Each row
// names a record key, the SummaryStats member it fills, the record object
// and layer it belongs to, its unit, and how summarize() reduces it.
// summarize(), the record's `summary` and `net` objects
// (run_output_to_json) and the CLI table are loops over it, so adding a
// metric takes one row plus its member.
#pragma once

#include <span>

#include "harness/cluster.h"

namespace faastcc::harness {

struct SummaryStats {
  double latency_med_ms = 0;
  double latency_p99_ms = 0;
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
  // Median per-DAG latency breakdown (ms); all zero unless tracing was
  // enabled for the run (the breakdown histograms are trace-derived).
  double breakdown_queue_ms = 0;
  double breakdown_compute_ms = 0;
  double breakdown_storage_ms = 0;
  double breakdown_network_ms = 0;
  double stab_gossip_rounds = 0;
  double stab_gossip_msgs = 0;
  double repl_promotions = 0;
  double routing_epoch_bumps = 0;
  // Fabric fault and RPC counts (all zero when the fault layer is off) and
  // DAG attempts abandoned by the client watchdog.
  double net_lost = 0;
  double net_duplicated = 0;
  double net_delay_spikes = 0;
  double net_crash_dropped = 0;
  double net_rpc_timeouts = 0;
  double net_rpc_retries = 0;
  double dag_timeouts = 0;
};

struct SummaryField {
  enum class Object { kSummary, kNet };  // run-record object holding the key
  enum class Reduce {
    kMedian,        // median of histogram `metric` (0 when absent)
    kP99,           // p99 of histogram `metric` (0 when absent)
    kValue,         // counter `metric` (0 when absent)
    kRatio,         // counter `metric` / counter `per` (0 when `per` is 0)
    kCacheBytes,    // RunResult::cache_bytes
    kCacheEntries,  // RunResult::cache_entries
  };

  const char* key;
  double SummaryStats::*member;
  Object object;
  const char* layer;
  const char* unit;
  Reduce reduce;
  const char* metric = nullptr;  // registry name
  const char* per = nullptr;     // kRatio denominator
};

// Record order: every kSummary row, then every kNet row.
extern const std::span<const SummaryField> kSummaryFields;

SummaryStats summarize(const RunResult& result);

}  // namespace faastcc::harness
