// Per-experiment metric collection.
//
// One Metrics instance is shared by every component of a simulated cluster
// (the simulation is single-threaded, so plain members suffice).  The
// fields map one-to-one onto the paper's reported quantities.
//
// Two access styles share the same storage:
//   * typed members (`metrics.dag_commits.inc()`) — the original flat
//     struct, kept so existing call sites and the host benchmark work;
//   * the registry (`metrics.counter("dag.commits")`,
//     `metrics.histogram("dag.latency_ms")`) — name-addressed handles.
//     Well-known names resolve to the typed members; unknown names create
//     dynamic entries on first use (deque-backed, so handles stay stable).
// Iteration (each_counter / each_histogram) visits the well-known metrics
// in declaration order, then dynamic ones in registration order — a
// deterministic order for bit-identical JSON output.
//
// Component counts live only here: no component keeps a counter struct
// of its own.  A component counts through its Metrics*: a typed member
// on per-request paths, a registry name only on cold paths (each
// counter(name) call is a name lookup).  docs/sweeps.md lists the names
// each layer writes.
//
// At the end of a run the cluster records the fabric's fault and RPC
// counts as registry counters (net.*); harness/summary.h reduces every
// reported quantity by registry name.
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <utility>

#include "common/stats.h"

namespace faastcc {

struct Metrics {
  // End-to-end DAG latency of committed transactions (Fig. 4a, 9, 10, 11).
  Samples dag_latency_ms;
  // Latency of aborted attempts, kept separately for analysis.
  Samples aborted_latency_ms;
  // Bytes of coordination metadata passed function-to-function (Fig. 5):
  // snapshot interval + write set for FaaSTCC, dependency map + write set
  // for HydroCache.  One sample per DAG edge traversal.
  Samples metadata_bytes;
  // Communication rounds per storage-read episode (Fig. 6).  A FaaSTCC
  // cache satisfies any read episode in exactly one round; HydroCache may
  // retry until it assembles a causally consistent result.
  Samples storage_rounds;
  // Request+response payload bytes per storage-read episode (Fig. 7).
  Samples storage_read_bytes;

  Counter dag_attempts;
  Counter dag_commits;
  Counter dag_aborts;
  // DAG attempts abandoned by the client-side watchdog (fault injection:
  // a lost one-way trigger/completion is only recoverable by retrying).
  Counter dag_timeouts;
  // Cache effectiveness (§6.3: 60 % / 70 % cache-served functions).
  Counter cache_lookups;
  Counter cache_hits;
  // Read episodes that had to touch the storage layer at all.
  Counter storage_episodes;

  // ---- Registry API -----------------------------------------------------
  // Handles are references into this instance: valid for its lifetime, and
  // copied by value when the instance is copied (RunResult snapshots).

  Counter& counter(std::string_view name);
  Samples& histogram(std::string_view name);

  // nullptr when `name` is neither well-known nor registered.  Never
  // creates an entry (safe on const RunResult snapshots).
  const Counter* find_counter(std::string_view name) const;
  const Samples* find_histogram(std::string_view name) const;

  // Deterministic iteration: well-known metrics in declaration order, then
  // dynamic metrics in registration order.
  void each_counter(
      const std::function<void(const char*, const Counter&)>& fn) const;
  void each_histogram(
      const std::function<void(const char*, const Samples&)>& fn) const;

  // Dynamic registry storage (deque: growth never invalidates handles).
  // Public so Metrics stays copyable as a plain value; use the registry
  // accessors instead of touching these directly.
  std::deque<std::pair<std::string, Counter>> dynamic_counters_;
  std::deque<std::pair<std::string, Samples>> dynamic_histograms_;
};

}  // namespace faastcc
