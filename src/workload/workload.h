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

// Time-varying load shapes for driving the autoscaler.  A deterministic
// function of sim time (no extra randomness), so a run with kNone is
// bit-identical to one predating the pattern machinery.
enum class LoadPattern : uint8_t {
  kNone = 0,  // constant closed-loop load (historical behavior)
  kBursty,    // on/off: full speed for half the period, idle the rest
};

inline const char* load_pattern_name(LoadPattern p) {
  switch (p) {
    case LoadPattern::kNone: return "none";
    case LoadPattern::kBursty: return "bursty";
  }
  return "?";
}
inline bool parse_load_pattern(std::string_view name, LoadPattern* out) {
  if (name == "none") {
    *out = LoadPattern::kNone;
  } else if (name == "bursty") {
    *out = LoadPattern::kBursty;
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
  // sleep between DAGs.
  LoadPattern pattern = LoadPattern::kNone;
  Duration pattern_period = seconds(1);  // burst cycle
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

  // Builds one chain DAG with freshly sampled keys.
  faas::DagSpec next_dag();

  // How long the closed-loop client should pause before its next DAG at
  // sim time `now`.  Zero for kNone (no pause — the paper's closed loop),
  // on/off for kBursty.  Pure function of (params, now): no randomness.
  Duration think_time_at(SimTime now) const;

  const WorkloadParams& params() const { return params_; }

  // Registers "wl_step" and "wl_sink" bodies.
  static void register_functions(faas::FunctionRegistry& registry);

 private:
  WorkloadParams params_;
  Rng rng_;
  ZipfSampler zipf_;
  uint64_t seq_ = 0;
};

}  // namespace faastcc::workload
