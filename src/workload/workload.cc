#include "workload/workload.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>
#include <utility>

namespace faastcc::workload {

WorkloadGen::WorkloadGen(WorkloadParams params, Rng rng)
    : WorkloadGen(params, rng, ZipfSampler(params.num_keys, params.zipf)) {}

WorkloadGen::WorkloadGen(WorkloadParams params, Rng rng, ZipfSampler zipf)
    : params_(params), rng_(rng), zipf_(std::move(zipf)) {
  assert(zipf_.num_keys() == params.num_keys && zipf_.theta() == params.zipf);
}

Duration WorkloadGen::think_time_at(SimTime now) const {
  if (params_.think_time <= Duration{0} ||
      params_.pattern_period <= Duration{0}) {
    return Duration{0};
  }
  const auto period = static_cast<SimTime>(params_.pattern_period);
  switch (params_.pattern) {
    case LoadPattern::kNone:
      return Duration{0};
    case LoadPattern::kBursty:
      // Full speed for the first half of every period, throttled for the
      // second: the spike the autoscaler should chase, then the trough it
      // should give capacity back in.
      return now % period < period / 2 ? Duration{0} : params_.think_time;
  }
  return Duration{0};
}

faas::DagSpec WorkloadGen::next_dag() {
  ++seq_;
  std::vector<faas::FunctionSpec> fns;
  fns.reserve(static_cast<size_t>(params_.dag_size));
  std::unordered_set<Key> read_set;  // built only for static transactions

  for (int i = 0; i < params_.dag_size; ++i) {
    std::vector<Key> keys;
    keys.reserve(static_cast<size_t>(params_.reads_per_function));
    for (int r = 0; r < params_.reads_per_function; ++r) {
      keys.push_back(zipf_.sample(rng_));
    }
    if (params_.static_txns) read_set.insert(keys.begin(), keys.end());
    faas::FunctionSpec fn;
    if (i + 1 < params_.dag_size) {
      fn.name = "wl_step";
      StepArgs args{std::move(keys)};
      fn.args = encode_message(args);
    } else {
      fn.name = "wl_sink";
      SinkArgs args;
      args.keys = std::move(keys);
      args.write_key = zipf_.sample(rng_);
      args.value = Value(params_.value_size, static_cast<char>('a' + seq_ % 26));
      fn.args = encode_message(args);
    }
    fns.push_back(std::move(fn));
  }

  faas::DagSpec dag = faas::DagSpec::chain(std::move(fns));
  dag.is_static = params_.static_txns;
  if (params_.static_txns) {
    dag.declared_read_set.assign(read_set.begin(), read_set.end());
    std::sort(dag.declared_read_set.begin(), dag.declared_read_set.end());
    SinkArgs sink = decode_message<SinkArgs>(dag.functions.back().args);
    dag.declared_write_set = {sink.write_key};
  }
  return dag;
}

void WorkloadGen::register_functions(faas::FunctionRegistry& registry) {
  registry.register_function(
      "wl_step", [](faas::ExecEnv& env) -> sim::Task<Buffer> {
        StepArgs args = decode_message<StepArgs>(env.args);
        auto values = co_await env.txn.read(std::move(args.keys));
        if (!values.has_value()) {
          env.abort_requested = true;
          co_return Buffer{};
        }
        // Pass a digest of the read values downstream, standing in for the
        // application-level result of the function.
        BufWriter w;
        uint64_t digest = 0;
        for (const Value& v : *values) {
          for (const char c : v) digest = digest * 131 + static_cast<uint8_t>(c);
        }
        w.put_u64(digest);
        co_return w.take();
      });

  registry.register_function(
      "wl_sink", [](faas::ExecEnv& env) -> sim::Task<Buffer> {
        SinkArgs args = decode_message<SinkArgs>(env.args);
        auto values = co_await env.txn.read(std::move(args.keys));
        if (!values.has_value()) {
          env.abort_requested = true;
          co_return Buffer{};
        }
        env.txn.write(args.write_key, args.value);
        BufWriter w;
        w.put_u64(args.write_key);
        co_return w.take();
      });
}

}  // namespace faastcc::workload
