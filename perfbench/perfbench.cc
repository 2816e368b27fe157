// The benchmark binary.  One process is one measured run (so peak RSS
// belongs to that run) or one set of layer probes; run.py starts the
// processes, checks their outputs and reduces them to the benchmark's
// metrics.  The simulator is driven only through its public entry points:
// harness::Cluster, ConsistencyOracle::check(), summarize() and
// run_output_to_json().
//
//   faastcc_perfbench --workload=paper-faastcc --seed=1 [--trace]
//                     [--no-check]
//   faastcc_perfbench --workload=paper-hydro --seed=1 --probe
//                     [--depmap-bytes=B]
//
// Each prints one JSON object on stdout.
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "harness/flags.h"
#include "harness/json.h"
#include "harness/run_spec.h"
#include "probes.h"
#include "workloads.h"

// ---- counting allocator ----------------------------------------------------
// Every operator new in this binary is counted.  The simulation is
// single-threaded and deterministic per seed, so the count over a run is an
// exact, repeatable figure for one build.

namespace {
uint64_t g_allocs = 0;
uint64_t g_alloc_bytes = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocs;
  g_alloc_bytes += n;
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++g_allocs;
  g_alloc_bytes += n;
  const auto a = static_cast<std::size_t>(al);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}
}  // namespace

// GCC pairs an inlined operator new with the free() below and warns about
// a mismatch; both halves are this file's malloc/free, so they do match.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(n, al)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace faastcc::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Median interpolated within the simulated clock's 1 us tick (the
// grouped-data median).  Latencies are whole microseconds, so on a narrow
// distribution the plain median sits on the same tick for every seed; the
// interpolation keeps where the middle sample falls inside that tick.
double interpolated_median_ms(const Samples& s) {
  constexpr double kTickMs = 0.001;
  const double med = s.median();
  double below = 0;
  double at = 0;
  for (double x : s.raw()) {
    if (x < med - kTickMs / 4) {
      ++below;
    } else if (x <= med + kTickMs / 4) {
      ++at;
    }
  }
  if (at == 0) return med;  // the two middle samples straddle a tick
  const double half = static_cast<double>(s.count()) / 2;
  return med - kTickMs / 2 + (half - below) / at * kTickMs;
}

double peak_rss_mb() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// One measured run: build + start (set-up), run_clients + oracle check
// (run), summarize + record encode (record).  Prints the run's simulated
// outcome, its host costs and, when traced, the tracer's breakdown.
void run_mode(const Workload& w, uint64_t seed, bool traced, bool check) {
  harness::ClusterParams params = params_for(w, seed);
  params.check_consistency = check;
  params.trace.enabled = traced;

  const auto t0 = Clock::now();
  auto cluster = std::make_unique<harness::Cluster>(params);
  const auto t1 = Clock::now();
  cluster->start();
  const auto t2 = Clock::now();

  const uint64_t events_before = cluster->loop().events_processed();
  const uint64_t allocs_before = g_allocs;
  const uint64_t alloc_bytes_before = g_alloc_bytes;
  harness::RunOutput out;
  out.result = cluster->run_clients();
  const auto t3 = Clock::now();
  const uint64_t run_allocs = g_allocs - allocs_before;
  const uint64_t run_alloc_bytes = g_alloc_bytes - alloc_bytes_before;
  const uint64_t run_events = out.result.sim_events - events_before;

  if (check::ConsistencyOracle* oracle = cluster->oracle()) {
    const auto violations = oracle->check();
    out.checked = true;
    out.violations = violations.size();
    if (!violations.empty()) {
      out.violation_kind = check::violation_name(violations.front().kind);
      out.oracle_report = oracle->report(violations);
    }
    out.oracle_installs = oracle->installs_recorded();
    out.oracle_reads = oracle->reads_recorded();
    out.oracle_commits = oracle->commits_recorded();
  }
  const auto t4 = Clock::now();
  out.summary = harness::summarize(out.result);
  out.messages_sent = cluster->network().messages_sent();
  const std::string record = harness::run_output_to_json(out);
  const auto t5 = Clock::now();
  const double rss_mb = peak_rss_mb();

  const Metrics& m = out.result.metrics;
  const harness::SummaryStats& s = out.summary;
  const net::Network& net = cluster->network();
  const uint64_t attempts = m.dag_attempts.value();
  const Counter* gossip = m.find_counter("stab.gossip_msgs");

  harness::json::Writer j(/*compact=*/true);
  j.begin_object();
  j.key("workload");
  j.string(w.name);
  j.key("seed");
  j.u64(seed);
  j.key("traced");
  j.boolean(traced);
  j.key("checked");
  j.boolean(out.checked);
  // The workload's shape, for the gates and the per-DAG call counts.
  j.key("system");
  j.string(harness::system_spec_name(w.system));
  j.key("dags");
  j.u64(params.clients * static_cast<uint64_t>(w.dags_per_client));
  j.key("dag_size");
  j.u64(static_cast<uint64_t>(w.dag_size));
  j.key("reads_per_function");
  j.u64(static_cast<uint64_t>(params.workload.reads_per_function));
  j.key("bounded_cache");
  j.boolean(w.cache_capacity != SIZE_MAX);

  // Deterministic per (workload, seed): must match across processes and
  // between traced and untraced runs.
  j.key("sim");
  j.begin_object();
  j.key("committed");
  j.u64(out.result.committed);
  j.key("attempts");
  j.u64(attempts);
  j.key("dag_p50_ms");
  j.number(interpolated_median_ms(m.dag_latency_ms));
  j.key("dag_p999_ms");
  j.number(m.dag_latency_ms.percentile(99.9));
  j.key("throughput_dps");
  j.number(out.result.throughput);
  j.key("sim_events");
  j.u64(out.result.sim_events);
  j.key("run_events");
  j.u64(run_events);
  j.key("messages");
  j.u64(net.messages_sent());
  j.key("wire_bytes");
  j.u64(net.bytes_sent());
  j.key("gossip_msgs");
  j.u64(gossip != nullptr ? gossip->value() : 0);
  j.key("storage_episodes");
  j.u64(m.storage_episodes.value());
  j.key("metadata_p50_bytes");
  j.number(s.metadata_med);
  j.key("metadata_p99_bytes");
  j.number(s.metadata_p99);
  j.key("rounds_p99");
  j.number(s.rounds_p99);
  j.key("read_bytes_p50");
  j.number(s.read_bytes_med);
  j.key("hit_rate");
  j.number(s.hit_rate);
  j.key("cache_entries");
  j.number(s.cache_entries);
  j.key("cache_bytes");
  j.number(s.cache_bytes);
  j.key("stab_lag_p50_us");
  j.number(s.stab_lag_med_us);
  j.key("violations");
  j.u64(out.violations);
  j.key("oracle_records");
  j.u64(out.oracle_installs + out.oracle_reads);
  j.end_object();

  // Exact for one build; compared across untraced runs of one seed.
  j.key("allocs");
  j.begin_object();
  j.key("run_allocs");
  j.u64(run_allocs);
  j.key("run_alloc_bytes");
  j.u64(run_alloc_bytes);
  j.end_object();

  j.key("host");
  j.begin_object();
  j.key("build_s");
  j.number(seconds_between(t0, t1));
  j.key("start_s");
  j.number(seconds_between(t1, t2));
  j.key("run_clients_s");
  j.number(seconds_between(t2, t3));
  j.key("verify_s");
  j.number(seconds_between(t3, t4));
  j.key("record_s");
  j.number(seconds_between(t4, t5));
  j.key("peak_rss_mb");
  j.number(rss_mb);
  j.end_object();

  if (traced) {
    const obs::Tracer& tracer = cluster->tracer();
    j.key("trace");
    j.begin_object();
    j.key("queue_ms");
    j.number(s.breakdown_queue_ms);
    j.key("compute_ms");
    j.number(s.breakdown_compute_ms);
    j.key("storage_ms");
    j.number(s.breakdown_storage_ms);
    j.key("network_ms");
    j.number(s.breakdown_network_ms);
    j.key("spans_recorded");
    j.u64(tracer.spans_recorded());
    j.key("spans_dropped");
    j.u64(tracer.spans_dropped());
    j.end_object();
  }

  j.end_object();
  std::printf("%s\n", j.take().c_str());
  if (out.violations != 0) {
    std::fprintf(stderr, "%s", out.oracle_report.c_str());
  }
}

}  // namespace
}  // namespace faastcc::perfbench

int main(int argc, char** argv) {
  using namespace faastcc;
  std::string workload;
  uint64_t seed = 1;
  bool traced = false;
  bool no_check = false;
  bool probe = false;
  double depmap_bytes = 0;
  harness::Flags flags("faastcc_perfbench",
                       "one measured benchmark run, or one set of probes");
  flags.str("workload", "workload name", &workload);
  flags.u64("seed", "workload seed", &seed);
  flags.boolean("trace", "enable the tracer", &traced);
  flags.boolean("no-check", "detach the consistency oracle", &no_check);
  flags.boolean("probe", "time each layer's public calls instead", &probe);
  flags.real("depmap-bytes", "context size for the DepMap probe",
             &depmap_bytes);
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "faastcc_perfbench: %s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::fputs(flags.usage().c_str(), stdout);
    return 0;
  }
  const perfbench::Workload* w = perfbench::find_workload(workload.c_str());
  if (w == nullptr) {
    std::fprintf(stderr, "faastcc_perfbench: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  if (probe) {
    std::printf("%s\n", perfbench::run_probes(*w, seed, depmap_bytes).c_str());
    return 0;
  }
  perfbench::run_mode(*w, seed, traced, w->check && !no_check);
  return 0;
}
