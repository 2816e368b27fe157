// Named run configurations: one source of truth for "--config=<name>".
//
// The table started life inside tcc_fuzz; now the sim, the fuzzer, the
// sweep runner and the bench binaries all resolve the same names to the
// same RunSpec overlays, and --list-configs prints the same table
// everywhere.  Regression ("chaos") configs re-enable one historical bug
// via its chaos knob; they are excluded from default fuzz sweeps (they are
// SUPPOSED to fail) and run only when named explicitly.
#pragma once

#include <string_view>
#include <vector>

#include "harness/run_spec.h"

namespace faastcc::harness {

struct NamedConfig {
  const char* name;
  const char* what;
  bool chaos;  // regression config: re-enables a historical bug
  // RunSpec patch (JSON) that RunSpec::resolve() applies on top of the
  // spec's params, so a config overrides the base it is named in.
  const char* overlay;
};

// All registered configs, in stable listing order.
const std::vector<NamedConfig>& all_configs();

// nullptr when no config has that name.
const NamedConfig* find_config(std::string_view name);

// `--list-configs` output on stdout, identical across binaries: each
// config's name, description and overlay.
void print_configs();

// The fuzzer's seed-rotated workload shapes (short chains / deep chains /
// static hot-key transactions), shared so a parallel sweep reproduces the
// serial fuzzer's runs exactly.
void apply_fuzz_shape(ClusterParams& p, uint64_t seed);

// tcc_fuzz's run: a small hot FaaSTCC cluster with the oracle attached,
// the seed's workload shape, and `config` applied on top at resolve().
RunSpec fuzz_spec(std::string_view config, uint64_t seed, int clients,
                  int dags);

}  // namespace faastcc::harness
