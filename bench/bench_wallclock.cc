// Wall-clock speed of the simulator itself.
//
// Unlike the paper-figure sweep plans (plans/paper/), which report
// *simulated* quantities, this one measures how fast the simulation core chews through its event and
// message hot paths on the host machine: wall milliseconds, simulated
// events per wall second and simulated messages per wall second, for the
// same fixed-seed workload on all three systems.  The numbers are the
// tracked artifact (BENCH_wallclock.json) that perf PRs must move; compare
// two runs with tools/bench_diff.py.
//
// The simulation is deterministic per seed, so per-system `sim_events`,
// `messages` and `committed` are build-invariant checksums: if they drift
// between two BENCH files, the runs are not comparable (the schedule
// changed) and bench_diff.py flags it.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "harness/cluster.h"
#include "harness/flags.h"

namespace faastcc::bench {
namespace {

struct Options {
  size_t partitions = 8;
  size_t compute_nodes = 4;
  size_t clients = 8;
  int dags_per_client = 250;
  uint64_t num_keys = 20000;
  int dag_size = 4;
  uint64_t seed = 42;
  int repeats = 3;
  std::string out = "BENCH_wallclock.json";
};

struct SystemResult {
  const char* name = "";
  double wall_ms = 0;          // best (minimum) over repeats
  std::vector<double> wall_ms_all;
  uint64_t sim_events = 0;     // deterministic per seed
  uint64_t messages = 0;       // deterministic per seed
  uint64_t committed = 0;      // deterministic per seed
  double events_per_sec = 0;
  double messages_per_sec = 0;
  // Growth of the process peak RSS across this system's repeats.  Peak RSS
  // is monotone, so the delta attributes metadata-heavy allocations to the
  // system that caused them instead of blaming the process-global number
  // on all three; systems that fit in the high-water mark of an earlier
  // one legitimately report 0.
  long peak_rss_delta_kb = 0;
};

long peak_rss_kb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return ru.ru_maxrss;  // KiB on Linux
}

harness::ClusterParams params_for(const Options& opt,
                                  harness::SystemKind system) {
  harness::ClusterParams p;
  p.system = system;
  p.seed = opt.seed;
  p.partitions = opt.partitions;
  p.compute_nodes = opt.compute_nodes;
  p.clients = opt.clients;
  p.dags_per_client = opt.dags_per_client;
  p.workload.num_keys = opt.num_keys;
  p.workload.dag_size = opt.dag_size;
  return p;
}

SystemResult run_system(const Options& opt, harness::SystemKind system) {
  SystemResult r;
  r.name = harness::system_name(system);
  const long rss_before_kb = peak_rss_kb();
  for (int i = 0; i < opt.repeats; ++i) {
    harness::Cluster cluster(params_for(opt, system));
    const auto t0 = std::chrono::steady_clock::now();
    const harness::RunResult run = cluster.run();
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    r.wall_ms_all.push_back(ms);
    // The run is deterministic; every repeat must agree on these.
    r.sim_events = run.sim_events;
    r.messages = cluster.network().messages_sent();
    r.committed = run.committed;
  }
  r.peak_rss_delta_kb = std::max(0L, peak_rss_kb() - rss_before_kb);
  r.wall_ms = *std::min_element(r.wall_ms_all.begin(), r.wall_ms_all.end());
  const double s = r.wall_ms / 1000.0;
  r.events_per_sec = static_cast<double>(r.sim_events) / s;
  r.messages_per_sec = static_cast<double>(r.messages) / s;
  return r;
}

void write_json(const Options& opt, const std::vector<SystemResult>& results,
                std::ostream& out) {
  auto num = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return std::string(buf);
  };
  out << "{\n";
  out << "  \"schema\": \"faastcc.bench_wallclock.v1\",\n";
  out << "  \"build_type\": \""
#ifdef NDEBUG
      << "release"
#else
      << "debug"
#endif
      << "\",\n";
  out << "  \"config\": {\n"
      << "    \"partitions\": " << opt.partitions << ",\n"
      << "    \"compute_nodes\": " << opt.compute_nodes << ",\n"
      << "    \"clients\": " << opt.clients << ",\n"
      << "    \"dags_per_client\": " << opt.dags_per_client << ",\n"
      << "    \"num_keys\": " << opt.num_keys << ",\n"
      << "    \"dag_size\": " << opt.dag_size << ",\n"
      << "    \"seed\": " << opt.seed << ",\n"
      << "    \"repeats\": " << opt.repeats << "\n"
      << "  },\n";
  out << "  \"peak_rss_kb\": " << peak_rss_kb() << ",\n";
  out << "  \"systems\": {\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const SystemResult& r = results[i];
    out << "    \"" << r.name << "\": {\n"
        << "      \"wall_ms\": " << num(r.wall_ms) << ",\n"
        << "      \"wall_ms_all\": [";
    for (size_t j = 0; j < r.wall_ms_all.size(); ++j) {
      out << (j ? ", " : "") << num(r.wall_ms_all[j]);
    }
    out << "],\n"
        << "      \"sim_events\": " << r.sim_events << ",\n"
        << "      \"messages\": " << r.messages << ",\n"
        << "      \"committed\": " << r.committed << ",\n"
        << "      \"events_per_sec\": " << num(r.events_per_sec) << ",\n"
        << "      \"messages_per_sec\": " << num(r.messages_per_sec) << ",\n"
        << "      \"peak_rss_delta_kb\": " << r.peak_rss_delta_kb << "\n"
        << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  },\n";
  double wall_ms = 0, events = 0, messages = 0;
  for (const SystemResult& r : results) {
    wall_ms += r.wall_ms;
    events += static_cast<double>(r.sim_events);
    messages += static_cast<double>(r.messages);
  }
  out << "  \"total\": {\n"
      << "    \"wall_ms\": " << num(wall_ms) << ",\n"
      << "    \"events_per_sec\": " << num(events / (wall_ms / 1000.0))
      << ",\n"
      << "    \"messages_per_sec\": " << num(messages / (wall_ms / 1000.0))
      << "\n  }\n";
  out << "}\n";
}

}  // namespace
}  // namespace faastcc::bench

int main(int argc, char** argv) {
  using namespace faastcc;
  bench::Options opt;
  harness::Flags flags("bench_wallclock",
                       "wall-clock speed of the simulation core");
  flags.size("partitions", "storage partitions", &opt.partitions);
  flags.size("nodes", "compute nodes", &opt.compute_nodes);
  flags.size("clients", "closed-loop clients", &opt.clients);
  flags.integer("dags", "DAGs per client", &opt.dags_per_client);
  flags.u64("keys", "dataset size", &opt.num_keys);
  flags.integer("dag-size", "functions per chain", &opt.dag_size);
  flags.u64("seed", "RNG seed", &opt.seed);
  flags.integer("repeats", "timed repeats per system (min is reported)",
                &opt.repeats);
  flags.str("out", "output artifact path", &opt.out);
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "bench_wallclock: %s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::fputs(flags.usage().c_str(), stdout);
    return 0;
  }
  opt.repeats = std::max(1, opt.repeats);

  std::printf("bench_wallclock: %zu partitions, %zu nodes, %zu clients, "
              "%d dags/client, %llu keys, dag size %d, seed %llu, "
              "%d repeats\n",
              opt.partitions, opt.compute_nodes, opt.clients,
              opt.dags_per_client,
              static_cast<unsigned long long>(opt.num_keys), opt.dag_size,
              static_cast<unsigned long long>(opt.seed), opt.repeats);

  std::vector<bench::SystemResult> results;
  for (harness::SystemKind system :
       {harness::SystemKind::kFaasTcc, harness::SystemKind::kHydroCache,
        harness::SystemKind::kCloudburst}) {
    bench::SystemResult r = bench::run_system(opt, system);
    std::printf(
        "  %-12s %9.1f ms   %12.0f events/s   %12.0f msgs/s   +%ld KiB RSS\n",
        r.name, r.wall_ms, r.events_per_sec, r.messages_per_sec,
        r.peak_rss_delta_kb);
    results.push_back(std::move(r));
  }

  std::ofstream out(opt.out);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", opt.out.c_str());
    return 1;
  }
  faastcc::bench::write_json(opt, results, out);
  std::printf("wrote %s (peak RSS %ld KiB)\n", opt.out.c_str(),
              faastcc::bench::peak_rss_kb());
  return 0;
}
