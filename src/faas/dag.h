// DAG model for function compositions (paper §3.1).
//
// A composition has one root, one sink, and arbitrary fan-out/fan-in in
// between; the whole composition executes as one transaction.  Functions
// are referenced by name in a registry and receive opaque argument bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/types.h"

namespace faastcc::faas {

struct FunctionSpec {
  std::string name;                // registry key
  Buffer args;                     // opaque, interpreted by the body
  std::vector<uint32_t> children;  // indices into DagSpec::functions

  static constexpr auto kFields = std::tuple{
      &FunctionSpec::name, &FunctionSpec::args, &FunctionSpec::children};
};

struct DagSpec {
  std::vector<FunctionSpec> functions;
  bool is_static = false;
  // Declared key sets, meaningful for static transactions only.
  std::vector<Key> declared_read_set;
  std::vector<Key> declared_write_set;

  // Index of the unique root (no parents).  Asserts validity.
  uint32_t root() const;
  // Number of parents of each function.
  std::vector<uint32_t> in_degrees() const;
  // True iff there is exactly one root, exactly one sink, all child
  // indices are in range and the graph is acyclic.
  bool valid() const;

  // Convenience builder: a chain f0 -> f1 -> ... -> f{n-1}.
  static DagSpec chain(std::vector<FunctionSpec> functions);

  // Graphs with several sinks are automatically extended with a no-op
  // sync function that aggregates them (paper §3.1), so the composition
  // has the single commit point the runtime requires.  Returns true if
  // the spec was modified.  The sync body is registered as
  // FunctionRegistry::kSyncFunction by every registry.
  bool normalize_sinks();

  static constexpr auto kFields =
      std::tuple{&DagSpec::functions, &DagSpec::is_static,
                 &DagSpec::declared_read_set, &DagSpec::declared_write_set};
};

}  // namespace faastcc::faas
