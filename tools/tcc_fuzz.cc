// Deterministic consistency fuzzer for the FaaSTCC stack.
//
//   tcc_fuzz [--seeds=N] [--seed-base=N] [--configs=a,b,...] [--jobs=N]
//            [--dags=N] [--clients=N] [--set=<group>.<key>=<value>]
//            [--list-configs] [--verbose]
//
// Sweeps seeds x fault matrices x workload shapes over small FaaSTCC
// clusters with the consistency oracle attached (zero perturbation: the
// oracle never changes the schedule, so every failure reproduces from its
// seed alone).  On the first violation the failing (seed, config, shape)
// is printed together with the oracle's report, the run is shrunk to a
// smaller counterexample (fewer clients/DAGs with the same violation),
// and the process exits 1.  A clean sweep exits 0.  --set overrides a
// RunSpec field of every run (the named config still applies on top),
// e.g. --set=node.executed_dedup_cap=0 to turn a dedup window off; the
// fields the fuzzer sets itself (seed, config, system, clients, DAGs, the
// oracle switch) are refused.
//
// The sweep itself runs through harness::run_sweep: --jobs=N forks N
// worker processes.  Because each run is deterministic per spec and
// verdicts are scanned in plan order, the failing (config, seed) — and
// hence the shrunk counterexample — is identical to a serial sweep.
#include <cstdio>
#include <string>
#include <vector>

#include "harness/configs.h"
#include "harness/flags.h"
#include "harness/sweep.h"

using namespace faastcc;
using namespace faastcc::harness;

namespace {

// The --set overrides in argv order, and as flags for a repro line.
std::vector<json::Value> g_sets;
std::string g_set_flags;

// Fields the fuzzer sets per run from its own flags (or fixes); a --set
// of one would run something other than what the repro lines print.
constexpr const char* kOwnedPaths[] = {
    "seed", "config", "system", "cluster.clients", "cluster.dags_per_client",
    "run.check_consistency"};

RunSpec make_spec(const std::string& config, uint64_t seed, int clients,
                  int dags) {
  RunSpec spec = fuzz_spec(config, seed, clients, dags);
  for (const json::Value& patch : g_sets) apply_spec_patch(spec, patch);
  return spec;
}

// Greedy shrink: fewer clients, then fewer DAGs, keeping the failure (a
// violation of the same kind) alive.  Deterministic, bounded work; runs
// serially in the parent so it is identical under any --jobs.
void shrink(const std::string& config, uint64_t seed, int clients, int dags,
            const std::string& kind) {
  auto still_fails = [&](int c, int d) {
    const RunOutput o = run_one(make_spec(config, seed, c, d));
    return o.violations > 0 && o.violation_kind == kind;
  };
  int best_c = clients, best_d = dags;
  for (int c = best_c / 2; c >= 1; c /= 2) {
    if (still_fails(c, best_d)) best_c = c;
  }
  for (int d = best_d / 2; d >= 1; d /= 2) {
    if (still_fails(best_c, d)) best_d = d;
  }
  std::fprintf(stderr,
               "minimal counterexample: --configs=%s --seed-base=%llu "
               "--seeds=1 --clients=%d --dags=%d%s\n",
               config.c_str(), static_cast<unsigned long long>(seed), best_c,
               best_d, g_set_flags.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seeds = 20, seed_base = 1;
  int clients = 4, dags = 12, jobs = 1;
  bool verbose = false, no_shrink = false, list = false;
  std::string configs_csv;
  std::string set_error;

  Flags flags("tcc_fuzz", "deterministic consistency fuzzer");
  flags.u64("seeds", "seeds per config", &seeds);
  flags.u64("seed-base", "first seed", &seed_base);
  flags.str("configs", "subset of fault configs, comma-separated "
            "(default: every non-chaos config)", &configs_csv);
  flags.integer("clients", "closed-loop clients", &clients);
  flags.integer("dags", "DAGs per client", &dags);
  flags.integer("jobs", "max concurrent worker processes", &jobs);
  flags.custom("set", "group.key=value",
               "override one RunSpec field of every run; repeatable",
               [&](const std::string& v) {
                 const std::string path = v.substr(0, v.find('='));
                 for (const char* owned : kOwnedPaths) {
                   if (path == owned) {
                     set_error = "--set=" + path +
                                 ": set by the fuzzer for each run "
                                 "(--seed-base, --configs, --clients, "
                                 "--dags)";
                     return false;
                   }
                 }
                 try {
                   RunSpec probe;
                   json::Value patch = spec_setting(v);
                   apply_spec_patch(probe, patch);
                   g_sets.push_back(std::move(patch));
                 } catch (const SpecError& e) {
                   set_error = e.what();
                   return false;
                 }
                 // Quoted for a shell when the value is JSON syntax.
                 g_set_flags += v.find_first_of(" \"[]{}") == v.npos
                                    ? " --set=" + v
                                    : " '--set=" + v + "'";
                 return true;
               });
  flags.boolean("no-shrink", "skip counterexample shrinking", &no_shrink);
  flags.boolean("list-configs", "print configs and exit", &list);
  flags.boolean("verbose", "per-run progress", &verbose);

  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "tcc_fuzz: %s\n%s",
                 set_error.empty() ? flags.error().c_str() : set_error.c_str(),
                 flags.usage().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::fputs(flags.usage().c_str(), stdout);
    return 0;
  }
  if (list) {
    print_configs();
    return 0;
  }

  const std::vector<std::string> wanted = Flags::split_csv(configs_csv);
  for (const std::string& w : wanted) {
    if (find_config(w) == nullptr) {
      std::fprintf(stderr,
                   "tcc_fuzz: unknown config '%s' (see --list-configs)\n",
                   w.c_str());
      return 2;
    }
  }
  auto selected = [&](const NamedConfig& cfg) {
    if (wanted.empty()) return !cfg.chaos;
    for (const std::string& w : wanted) {
      if (w == cfg.name) return true;
    }
    return false;
  };

  // Plan order is (config, seed) nesting, matching the old serial loops,
  // so "first violation in plan order" is the same run the serial fuzzer
  // would have stopped at.
  SweepPlan plan;
  struct ItemMeta {
    std::string config;
    uint64_t seed;
  };
  std::vector<ItemMeta> meta;
  for (const NamedConfig& cfg : all_configs()) {
    if (!selected(cfg)) continue;
    for (uint64_t s = 0; s < seeds; ++s) {
      const uint64_t seed = seed_base + s;
      SweepItem item;
      item.spec = make_spec(cfg.name, seed, clients, dags);
      item.id = std::string(cfg.name) + "/s" + std::to_string(seed);
      plan.items.push_back(std::move(item));
      meta.push_back(ItemMeta{cfg.name, seed});
    }
  }

  SweepOptions opts;
  opts.jobs = jobs;
  opts.verbose = verbose;
  opts.stop_on_violation = true;  // serial mode stops like the old loop
  SweepResult result;
  try {
    result = run_sweep(plan, opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tcc_fuzz: %s\n", e.what());
    return 2;
  }

  uint64_t total_committed = 0;
  size_t total_installs = 0;
  for (const RunRecord& rec : result.records) {
    if (!rec.ran) continue;
    total_committed += rec.committed;
    const json::Value doc = json::parse(rec.json);
    total_installs +=
        static_cast<size_t>(doc.find("oracle")->find("installs")->as_u64());
    if (rec.violations == 0 && rec.committed == 0) {
      // Liveness collapse is not a consistency violation but a sweep
      // that commits nothing verifies nothing; flag it loudly.
      std::fprintf(stderr, "warning: run=%s committed 0 DAGs\n",
                   rec.id.c_str());
    }
  }

  if (result.first_violation != SIZE_MAX) {
    const size_t i = result.first_violation;
    const RunRecord& rec = result.records[i];
    std::fprintf(stderr,
                 "\nconsistency violation: config=%s seed=%llu "
                 "clients=%d dags=%d%s\n%s",
                 meta[i].config.c_str(),
                 static_cast<unsigned long long>(meta[i].seed), clients, dags,
                 g_set_flags.c_str(), rec.oracle_report.c_str());
    if (!no_shrink) {
      shrink(meta[i].config, meta[i].seed, clients, dags,
             rec.violation_kind);
    }
    return 1;
  }

  std::fprintf(stderr,
               "fuzz sweep clean: %llu runs, %llu DAGs committed, "
               "%zu installs checked\n",
               static_cast<unsigned long long>(result.runs),
               static_cast<unsigned long long>(total_committed),
               total_installs);
  return 0;
}
