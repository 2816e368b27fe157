#include "faas/dag.h"

#include <cassert>

namespace faastcc::faas {

std::vector<uint32_t> DagSpec::in_degrees() const {
  std::vector<uint32_t> deg(functions.size(), 0);
  for (const auto& f : functions) {
    for (uint32_t c : f.children) {
      if (c < deg.size()) ++deg[c];
    }
  }
  return deg;
}

uint32_t DagSpec::root() const {
  const auto deg = in_degrees();
  for (uint32_t i = 0; i < deg.size(); ++i) {
    if (deg[i] == 0) return i;
  }
  assert(false && "DAG has no root");
  return 0;
}

bool DagSpec::valid() const {
  if (functions.empty()) return false;
  size_t roots = 0;
  size_t sinks = 0;
  for (const auto& f : functions) {
    if (f.children.empty()) ++sinks;
    for (uint32_t c : f.children) {
      if (c >= functions.size()) return false;
    }
  }
  const auto deg = in_degrees();
  for (uint32_t d : deg) {
    if (d == 0) ++roots;
  }
  if (roots != 1 || sinks != 1) return false;
  // Acyclicity via Kahn's algorithm.
  std::vector<uint32_t> remaining = deg;
  std::vector<uint32_t> queue;
  for (uint32_t i = 0; i < remaining.size(); ++i) {
    if (remaining[i] == 0) queue.push_back(i);
  }
  size_t seen = 0;
  while (!queue.empty()) {
    const uint32_t u = queue.back();
    queue.pop_back();
    ++seen;
    for (uint32_t c : functions[u].children) {
      if (--remaining[c] == 0) queue.push_back(c);
    }
  }
  return seen == functions.size();
}

bool DagSpec::normalize_sinks() {
  std::vector<uint32_t> sinks;
  for (uint32_t i = 0; i < functions.size(); ++i) {
    if (functions[i].children.empty()) sinks.push_back(i);
  }
  if (sinks.size() <= 1) return false;
  FunctionSpec sync;
  sync.name = "__sync";
  const auto sync_index = static_cast<uint32_t>(functions.size());
  for (uint32_t s : sinks) functions[s].children.push_back(sync_index);
  functions.push_back(std::move(sync));
  return true;
}

DagSpec DagSpec::chain(std::vector<FunctionSpec> fns) {
  DagSpec d;
  d.functions = std::move(fns);
  for (uint32_t i = 0; i + 1 < d.functions.size(); ++i) {
    d.functions[i].children = {i + 1};
  }
  if (!d.functions.empty()) d.functions.back().children.clear();
  return d;
}

}  // namespace faastcc::faas
