// Named function bodies, the FaaS "deployed code".
//
// Bodies are coroutines: they read and write through the transaction
// handle (which talks to the node's cache) and return opaque result bytes
// passed to child functions.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "client/txn.h"
#include "sim/event_loop.h"
#include "sim/task.h"

namespace faastcc::faas {

struct ExecEnv {
  client::FunctionTxn& txn;
  const Payload& args;  // the function's args, in place in the trigger
  const Buffer& parent_result;
  sim::EventLoop& loop;
  // Set by the body to request an abort independent of storage (e.g., an
  // application-level constraint violation).
  bool abort_requested = false;
};

using FunctionBody = std::function<sim::Task<Buffer>(ExecEnv&)>;

class FunctionRegistry {
 public:
  // Every registry provides the no-op "__sync" aggregator used by
  // DagSpec::normalize_sinks().
  FunctionRegistry();

  void register_function(std::string name, FunctionBody body);
  const FunctionBody* find(std::string_view name) const;
  std::vector<std::string> names() const;

 private:
  // Transparent, so find() looks up a name viewed in a trigger's spec
  // without building a string.
  struct NameHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>()(s);
    }
  };
  std::unordered_map<std::string, FunctionBody, NameHash, std::equal_to<>>
      bodies_;
};

}  // namespace faastcc::faas
