// The benchmark's workloads: one table, read by the run and probe modes.
// Cluster sizes are the paper's §6.1 defaults (ClusterParams): 16
// partitions, 10 compute nodes, 16 closed-loop clients, 100 000 keys of
// 8 bytes.  README.md says why each workload exists.
#pragma once

#include <cstdint>
#include <cstring>

#include "harness/cluster.h"

namespace faastcc::perfbench {

struct Workload {
  const char* name;
  harness::SystemKind system;
  int dags_per_client;
  int dag_size;
  double zipf;
  size_t cache_capacity;  // entries per node; SIZE_MAX = unbounded
  bool check;             // attach the consistency oracle
};

inline constexpr Workload kWorkloads[] = {
    {"paper-faastcc", harness::SystemKind::kFaasTcc, 1000, 6, 1.0, SIZE_MAX,
     true},
    {"paper-hydro", harness::SystemKind::kHydroCache, 1000, 6, 1.0, SIZE_MAX,
     false},
    {"faastcc-miss-write", harness::SystemKind::kFaasTcc, 2000, 2, 0.6, 1000,
     false},
};

inline const Workload* find_workload(const char* name) {
  for (const Workload& w : kWorkloads) {
    if (std::strcmp(w.name, name) == 0) return &w;
  }
  return nullptr;
}

inline harness::ClusterParams params_for(const Workload& w, uint64_t seed) {
  harness::ClusterParams p;
  p.system = w.system;
  p.seed = seed;
  p.dags_per_client = w.dags_per_client;
  p.workload.dag_size = w.dag_size;
  p.workload.zipf = w.zipf;
  p.cache_capacity = w.cache_capacity;
  p.check_consistency = w.check;
  return p;
}

}  // namespace faastcc::perfbench
