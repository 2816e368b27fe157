// Command-line experiment driver: a thin shell over harness::run_one.
//
//   faastcc_sim [--spec=run.json] [--set=<group>.<key>=<value>] ...
//
// Every option edits one RunSpec; the run itself (cluster build, oracle,
// trace export) lives in the harness library so faastcc_sim, tcc_fuzz and
// tcc_sweep all execute a run identically.  --set names any RunSpec field
// by its spec path (--dump-spec lists them all with their defaults), and
// a short list of aliases spells the most used ones.  Flags apply in argv
// order, so `--spec=base.json --zipf=1.2` overrides the file and
// `--dump-spec` prints the resulting canonical spec without running it.
//
// Prints the run record (harness::run_output_to_json, the same object a
// sweep merges) as one JSON line with --json, or as a table grouped by
// layer.  The oracle verdict and trace totals go to stderr.
// With --trace-out the run records deterministic distributed traces in
// Chrome trace-event format (open in chrome://tracing or Perfetto).
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/configs.h"
#include "harness/flags.h"
#include "harness/run_spec.h"

using namespace faastcc;
using namespace faastcc::harness;

namespace {

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

// Short spellings of the RunSpec fields CI, tests and docs set most: each
// --<flag>=<value> is --set=<path>=<value>.  A flag with a `bare` value
// may be given without one.
struct Alias {
  const char* flag;
  const char* path;
  const char* bare = nullptr;
};

constexpr Alias kAliases[] = {
    {"system", "system"},
    {"config", "config"},
    {"seed", "seed"},
    {"zipf", "workload.zipf"},
    {"dags", "cluster.dags_per_client"},
    {"clients", "cluster.clients"},
    {"dag-size", "workload.dag_size"},
    {"keys", "workload.num_keys"},
    {"partitions", "cluster.partitions"},
    {"nodes", "cluster.compute_nodes"},
    {"check", "run.check_consistency", "true"},
};

}  // namespace

int main(int argc, char** argv) {
  RunSpec spec;
  const ClusterParams& p = spec.params;

  bool json_out = false;
  bool dump_spec = false;
  bool list_configs = false;
  std::string trace_out;
  std::string spec_error;

  // Applies one edit to the spec; a SpecError becomes the parse error.
  const auto edit = [&](const auto& apply) {
    try {
      apply();
    } catch (const SpecError& e) {
      spec_error = e.what();
      return false;
    }
    return true;
  };
  const auto set = [&](const std::string& setting) {
    return edit([&] { apply_spec_patch(spec, spec_setting(setting)); });
  };

  Flags flags("faastcc_sim", "single-run experiment driver");
  flags.custom("spec", "file.json", "load a RunSpec; later flags override",
               [&](const std::string& v) {
                 std::string text;
                 if (!read_file(v, &text)) {
                   spec_error = "cannot read spec file '" + v + "'";
                   return false;
                 }
                 return edit([&] { spec = spec_from_text(text); });
               });
  flags.custom("set", "group.key=value",
               "set one RunSpec field (names and defaults: --dump-spec); "
               "repeatable",
               set);
  for (const Alias& a : kAliases) {
    flags.custom(a.flag, a.bare ? "" : "value",
                 std::string("--set=") + a.path + "=" +
                     (a.bare ? a.bare : "<value>"),
                 [&set, a](const std::string& v) {
                   return set(std::string(a.path) + "=" +
                              (v.empty() && a.bare ? a.bare : v));
                 });
  }
  flags.boolean("json", "print the run record as one JSON line", &json_out);
  flags.str("trace-out", "enable tracing, write Chrome trace JSON here",
            &trace_out);
  flags.boolean("dump-spec", "print the canonical RunSpec JSON and exit",
                &dump_spec);
  flags.boolean("list-configs", "list named configs and exit",
                &list_configs);

  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "faastcc_sim: %s\n%s",
                 spec_error.empty() ? flags.error().c_str()
                                    : spec_error.c_str(),
                 flags.usage().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::fputs(flags.usage().c_str(), stdout);
    return 0;
  }
  if (list_configs) {
    print_configs();
    return 0;
  }

  if (!trace_out.empty()) spec.params.trace.enabled = true;

  if (dump_spec) {
    std::fputs(to_json(spec).c_str(), stdout);
    return 0;
  }

  std::fprintf(stderr,
               "running %s  zipf=%.2f  %s%s clients=%zu x %d DAGs ...\n",
               system_name(p.system), p.workload.zipf,
               p.workload.static_txns ? "static " : "dynamic ",
               p.faastcc.snapshot_isolation ? "(SI) " : "", p.clients,
               p.dags_per_client);

  RunOutput out;
  try {
    out = run_one(spec);
  } catch (const SpecError& e) {
    std::fprintf(stderr, "faastcc_sim: %s\n", e.what());
    return 2;
  }

  int exit_code = 0;
  if (out.checked) {
    if (out.violations == 0) {
      std::fprintf(stderr,
                   "consistency check: clean (%zu installs, %zu reads, "
                   "%zu commits)\n",
                   out.oracle_installs, out.oracle_reads, out.oracle_commits);
    } else {
      std::fprintf(stderr, "%s", out.oracle_report.c_str());
      exit_code = 1;
    }
  }

  if (!trace_out.empty()) {
    std::ofstream trace_file(trace_out);
    if (!trace_file) {
      std::fprintf(stderr, "cannot open trace output '%s'\n",
                   trace_out.c_str());
      return 1;
    }
    trace_file << out.trace_json;
    std::fprintf(stderr, "trace: %llu spans (%llu dropped) -> %s\n",
                 static_cast<unsigned long long>(out.trace_spans_recorded),
                 static_cast<unsigned long long>(out.trace_spans_dropped),
                 trace_out.c_str());
  }

  if (json_out) {
    std::printf("%s\n", run_output_to_json(out).c_str());
  } else {
    print_run_table(out);
  }
  return exit_code;
}
