// Command-line experiment driver: a thin shell over harness::run_one.
//
//   faastcc_sim [--spec=run.json] [--system=...] [--config=<name>] ...
//
// Every option edits one RunSpec; the run itself (cluster build, oracle,
// trace export) lives in the harness library so faastcc_sim, tcc_fuzz and
// tcc_sweep all execute a run identically.  Flags apply in argv order, so
// `--spec=base.json --zipf=1.2` overrides the file and `--dump-spec`
// prints the resulting canonical spec without running it.
//
// Prints the run record (harness::run_output_to_json, the same object a
// sweep merges) as one JSON line with --json, or as a table grouped by
// layer.  The oracle verdict and trace totals go to stderr.
// With --trace-out the run records deterministic distributed traces in
// Chrome trace-event format (open in chrome://tracing or Perfetto).
#include <cstdio>
#include <cstdlib>
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

}  // namespace

int main(int argc, char** argv) {
  RunSpec spec;
  ClusterParams& p = spec.params;

  bool json_out = false;
  bool dump_spec = false;
  bool list_configs_flag = false;
  bool static_txns = false;
  bool si = false;
  bool no_prewarm = false;
  bool check = false;
  std::string trace_out;
  std::string spec_error;

  Flags flags("faastcc_sim", "single-run experiment driver");
  flags.custom("spec", "file.json", "load a RunSpec; later flags override",
               [&](const std::string& v) {
                 std::string text;
                 if (!read_file(v, &text)) {
                   spec_error = "cannot read spec file '" + v + "'";
                   return false;
                 }
                 try {
                   spec = spec_from_text(text);
                 } catch (const SpecError& e) {
                   spec_error = e.what();
                   return false;
                 }
                 return true;
               });
  flags.custom("system", "faastcc|hydrocache|cloudburst", "system under test",
               [&](const std::string& v) {
                 return parse_system(v, &p.system);
               });
  flags.custom("config", "name", "apply a named config (see --list-configs)",
               [&](const std::string& v) {
                 if (find_config(v) == nullptr) return false;
                 spec.config = v;
                 return true;
               });
  flags.real("zipf", "workload key-popularity skew", &p.workload.zipf);
  flags.boolean("static", "static transactions", &static_txns);
  flags.boolean("si", "snapshot-isolation mode", &si);
  flags.integer("dags", "DAGs per client", &p.dags_per_client);
  flags.size("clients", "closed-loop clients", &p.clients);
  flags.integer("dag-size", "functions per chain", &p.workload.dag_size);
  flags.u64("keys", "dataset size", &p.workload.num_keys);
  flags.size("partitions", "storage partitions", &p.partitions);
  flags.size("nodes", "compute nodes", &p.compute_nodes);
  flags.size("cache-capacity", "entries per node cache", &p.cache_capacity);
  flags.u64("seed", "RNG seed", &p.seed);
  flags.boolean("no-prewarm", "skip cache pre-warming", &no_prewarm);
  flags.boolean("check",
                "attach the consistency oracle (FaaSTCC only; zero "
                "perturbation, exit 1 on violations)",
                &check);
  flags.boolean("json", "print the run record as one JSON line", &json_out);
  flags.real("loss", "fabric message loss probability", &p.faults.loss_prob);
  flags.real("dup", "fabric message duplication probability",
             &p.faults.dup_prob);
  flags.real("delay-spike-prob", "probability of a delivery delay spike",
             &p.faults.delay_spike_prob);
  flags.duration_ms("delay-spike-ms", "spike magnitude",
                    &p.faults.delay_spike);
  flags.duration_ms("rpc-timeout-ms", "fabric RPC timeout",
                    &p.faults.rpc_timeout);
  flags.duration_ms("dag-timeout-ms", "client DAG watchdog",
                    &p.faults.dag_timeout);
  flags.custom("crash", "addr:from_ms:until_ms",
               "sever an endpoint during [from, until); repeatable",
               [&](const std::string& v) {
                 unsigned long long addr = 0, from_ms = 0, until_ms = 0;
                 if (std::sscanf(v.c_str(), "%llu:%llu:%llu", &addr, &from_ms,
                                 &until_ms) != 3) {
                   return false;
                 }
                 net::CrashWindow w;
                 w.addr = static_cast<net::Address>(addr);
                 w.from = milliseconds(static_cast<int64_t>(from_ms));
                 w.until = milliseconds(static_cast<int64_t>(until_ms));
                 p.faults.crashes.push_back(w);
                 return true;
               });
  flags.str("trace-out", "enable tracing, write Chrome trace JSON here",
            &trace_out);
  flags.u64("trace-sample", "record every n-th DAG trace",
            &p.trace.sample_every);
  flags.size("trace-buffer", "span ring-buffer capacity",
             &p.trace.ring_capacity);
  flags.size("elastic-add", "joiner partitions added mid-run",
             &p.elastic.add_partitions);
  flags.duration_ms("elastic-at-ms", "sim-time of the epoch bump",
                    &p.elastic.at);
  flags.size("elastic-remove", "trailing partitions drained mid-run",
             &p.elastic.remove_partitions);
  flags.duration_ms("elastic-remove-at-ms", "sim-time of the scale-in",
                    &p.elastic.remove_at);
  flags.size("elastic-slots", "routing slots per partition",
             &p.elastic.slots_per_partition);
  flags.size("autoscale-max", "autoscaler partition ceiling (0 disables)",
             &p.autoscale.max_partitions);
  flags.size("autoscale-min", "autoscaler floor (0 = starting count)",
             &p.autoscale.min_partitions);
  flags.duration_ms("autoscale-period-ms", "autoscaler check period",
                    &p.autoscale.check_period);
  flags.real("autoscale-high-ms", "scale-out when windowed p99 above this",
             &p.autoscale.high_p99_ms);
  flags.real("autoscale-low-ms", "scale-in when windowed p99 below this",
             &p.autoscale.low_p99_ms);
  flags.size("autoscale-breach", "consecutive breaching windows to act",
             &p.autoscale.breach_checks);
  flags.duration_ms("autoscale-cooldown-ms", "hold-off after an action",
                    &p.autoscale.cooldown);
  flags.size("autoscale-step", "partitions added/removed per action",
             &p.autoscale.step);
  flags.custom("workload-pattern", "none|bursty|diurnal|hotspot-shift",
               "load-shaping pattern",
               [&](const std::string& v) {
                 return workload::parse_load_pattern(v, &p.workload.pattern);
               });
  flags.duration_ms("pattern-period-ms", "load-pattern cycle length",
                    &p.workload.pattern_period);
  flags.duration_ms("think-time-ms", "max off-peak inter-DAG pause",
                    &p.workload.think_time);
  flags.size("replication-factor", "synchronous followers per partition",
             &p.replication.factor);
  flags.duration_ms("repl-lease-ms", "follower promotion lease timeout",
                    &p.replication.lease_timeout);
  flags.boolean("dump-spec", "print the canonical RunSpec JSON and exit",
                &dump_spec);
  flags.boolean("list-configs", "list named configs and exit",
                &list_configs_flag);

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
  if (list_configs_flag) {
    std::printf("named configs:\n");
    list_configs(stdout);
    return 0;
  }

  if (static_txns) p.workload.static_txns = true;
  if (si) p.faastcc.snapshot_isolation = true;
  if (no_prewarm) p.prewarm_caches = false;
  if (check) p.check_consistency = true;
  if (!trace_out.empty()) p.trace.enabled = true;
  if (p.trace.sample_every == 0) p.trace.sample_every = 1;

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
