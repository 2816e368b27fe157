// Workload generator reproducing the paper's benchmark (§6.1):
// sequential chains of functions, each reading two Zipf-distributed keys;
// the sink additionally writes one Zipf-distributed key.  Static
// transactions declare all keys up front; dynamic transactions reveal them
// only at execution time.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/rng.h"
#include "common/zipf.h"
#include "faas/dag.h"
#include "faas/function_registry.h"

namespace faastcc::workload {

// Time-varying load shapes for driving the autoscaler.  All are
// deterministic functions of sim time (no extra randomness), so a run
// with kNone is bit-identical to one predating the pattern machinery.
enum class LoadPattern : uint8_t {
  kNone = 0,     // constant closed-loop load (historical behavior)
  kBursty,       // on/off: full speed for half the period, idle the rest
  kDiurnal,      // triangle wave: load peaks mid-period, troughs at edges
  kHotspotShift, // constant rate, but the Zipf hotspot rotates per period
};

inline const char* load_pattern_name(LoadPattern p) {
  switch (p) {
    case LoadPattern::kNone: return "none";
    case LoadPattern::kBursty: return "bursty";
    case LoadPattern::kDiurnal: return "diurnal";
    case LoadPattern::kHotspotShift: return "hotspot-shift";
  }
  return "?";
}
inline bool parse_load_pattern(std::string_view name, LoadPattern* out) {
  if (name == "none") {
    *out = LoadPattern::kNone;
  } else if (name == "bursty") {
    *out = LoadPattern::kBursty;
  } else if (name == "diurnal") {
    *out = LoadPattern::kDiurnal;
  } else if (name == "hotspot-shift") {
    *out = LoadPattern::kHotspotShift;
  } else {
    return false;
  }
  return true;
}

struct WorkloadParams {
  uint64_t num_keys = 100000;
  double zipf = 1.0;
  int dag_size = 6;            // functions per chain
  int reads_per_function = 2;
  size_t value_size = 8;       // bytes
  bool static_txns = false;
  // Load shaping (autoscaler experiments).  kNone is inert: clients never
  // sleep between DAGs and key sampling ignores time.
  LoadPattern pattern = LoadPattern::kNone;
  Duration pattern_period = seconds(1);  // burst/diurnal cycle; rotation step
  Duration think_time = Duration{0};     // max inter-DAG pause when off-peak
};

// Argument layouts for the registered functions.
struct StepArgs {
  std::vector<Key> keys;

  static constexpr auto kFields = std::tuple{&StepArgs::keys};
};

struct SinkArgs {
  std::vector<Key> keys;
  Key write_key = 0;
  Value value;

  static constexpr auto kFields =
      std::tuple{&SinkArgs::keys, &SinkArgs::write_key, &SinkArgs::value};
};

class WorkloadGen {
 public:
  // Builds its own Zipf table for params.num_keys / params.zipf.
  WorkloadGen(WorkloadParams params, Rng rng);
  // Shares `zipf`, which must match params.num_keys / params.zipf (a
  // cluster builds one table for all of its clients).
  WorkloadGen(WorkloadParams params, Rng rng, ZipfSampler zipf);

  // Builds one chain DAG with freshly sampled keys.  `now` only matters to
  // the hotspot-shifting pattern (it decides the current rotation); every
  // other pattern ignores it, keeping historical runs bit-identical.
  faas::DagSpec next_dag(SimTime now = 0);

  // How long the closed-loop client should pause before its next DAG at
  // sim time `now`.  Zero for kNone and kHotspotShift (no pause — the
  // paper's closed loop), on/off for kBursty, a triangle wave for
  // kDiurnal.  Pure function of (params, now): no randomness.
  Duration think_time_at(SimTime now) const;

  const WorkloadParams& params() const { return params_; }

  // Registers "wl_step" and "wl_sink" bodies.
  static void register_functions(faas::FunctionRegistry& registry);

 private:
  Key sample_key(SimTime now);

  WorkloadParams params_;
  Rng rng_;
  ZipfSampler zipf_;
  uint64_t seq_ = 0;
};

}  // namespace faastcc::workload
