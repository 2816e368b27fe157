// Host-time probes: each layer's public calls timed in isolation, on
// inputs drawn from the workload's own generator and sizes.
#pragma once

#include <cstdint>
#include <string>

#include "workloads.h"

namespace faastcc::perfbench {

// Returns a JSON object {"<layer>.probe_<name>_ns": ns per call, ...}.
// `depmap_bytes` is the run's median metadata size; the DepMap probe runs
// only for HydroCache workloads (it reports 0 elsewhere).
std::string run_probes(const Workload& w, uint64_t seed, double depmap_bytes);

}  // namespace faastcc::perfbench
