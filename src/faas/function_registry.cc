#include "faas/function_registry.h"

#include <cassert>

namespace faastcc::faas {

FunctionRegistry::FunctionRegistry() {
  register_function("__sync", [](ExecEnv&) -> sim::Task<Buffer> {
    // Aggregates the outputs of multiple sinks; its only job is giving
    // the composition a single commit point (paper §3.1).
    co_return Buffer{};
  });
}

void FunctionRegistry::register_function(std::string name, FunctionBody body) {
  auto [it, inserted] = bodies_.emplace(std::move(name), std::move(body));
  assert(inserted && "function registered twice");
  (void)it;
  (void)inserted;
}

const FunctionBody* FunctionRegistry::find(std::string_view name) const {
  auto it = bodies_.find(name);
  return it == bodies_.end() ? nullptr : &it->second;
}

std::vector<std::string> FunctionRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(bodies_.size());
  for (const auto& [name, body] : bodies_) out.push_back(name);
  return out;
}

}  // namespace faastcc::faas
