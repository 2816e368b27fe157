// tcc_sweep: run declarative sweep plans across worker processes and
// write the deterministically merged artifact.
//
//   tcc_sweep --plan=plans/scale.json --jobs=8 --out=BENCH_scale.json
//   tcc_sweep --plan=plans/paper --jobs=3 --out=BENCH_paper.json
//
// --plan takes comma-separated files and directories (a directory stands
// for its *.json files in name order).  Several plans run as one sweep and
// merge into one artifact; each must carry a distinct "name".
// The merged artifact is byte-identical for a given plan regardless of
// --jobs or completion order; wall-clock goes to stderr only.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/configs.h"
#include "harness/flags.h"
#include "harness/sweep.h"

namespace {

using namespace faastcc;

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

// The plan files a --plan entry names: itself, or a directory's *.json.
std::vector<std::string> plan_files(const std::string& entry) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(entry, ec)) return {entry};
  std::vector<std::string> files;
  for (const fs::directory_entry& f : fs::directory_iterator(entry, ec)) {
    if (f.path().extension() == ".json") files.push_back(f.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

}  // namespace

int main(int argc, char** argv) {
  std::string plan_path;
  std::string out_path;
  int jobs = 1;
  bool verbose = false;
  bool list_configs_flag = false;
  bool dump_plan = false;

  harness::Flags flags("tcc_sweep",
                       "parallel sweep runner over RunSpec plans");
  flags.str("plan", "sweep plan files or directories, comma-separated",
            &plan_path);
  flags.str("out", "write merged artifact here (default: stdout)", &out_path);
  flags.integer("jobs", "max concurrent worker processes", &jobs);
  flags.boolean("verbose", "per-run progress lines on stderr", &verbose);
  flags.boolean("dump-plan", "print expanded run ids and exit", &dump_plan);
  flags.boolean("list-configs", "list named configs and exit",
                &list_configs_flag);

  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "tcc_sweep: %s\n%s", flags.error().c_str(),
                 flags.usage().c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::fputs(flags.usage().c_str(), stdout);
    return 0;
  }
  if (list_configs_flag) {
    std::printf("named configs:\n");
    harness::list_configs(stdout);
    return 0;
  }
  if (plan_path.empty()) {
    std::fprintf(stderr, "tcc_sweep: --plan is required\n%s",
                 flags.usage().c_str());
    return 2;
  }

  try {
    harness::SweepPlan plan;
    for (const std::string& entry : harness::Flags::split_csv(plan_path)) {
      for (const std::string& path : plan_files(entry)) {
        std::string plan_text;
        if (!read_file(path, &plan_text)) {
          std::fprintf(stderr, "tcc_sweep: cannot read %s\n", path.c_str());
          return 2;
        }
        plan.append(harness::SweepPlan::from_text(plan_text));
      }
    }
    if (plan.items.empty()) {
      std::fprintf(stderr, "tcc_sweep: no plan in %s\n", plan_path.c_str());
      return 2;
    }
    if (dump_plan) {
      for (const harness::SweepItem& item : plan.items) {
        std::printf("%s\n", item.id.c_str());
      }
      std::fprintf(stderr, "%zu runs\n", plan.items.size());
      return 0;
    }

    harness::SweepOptions opts;
    opts.jobs = jobs;
    opts.verbose = verbose;
    const harness::SweepResult result = harness::run_sweep(plan, opts);
    const std::string merged = harness::merge_to_json(plan, result);

    if (out_path.empty()) {
      std::fputs(merged.c_str(), stdout);
    } else {
      std::ofstream out(out_path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "tcc_sweep: cannot write %s\n",
                     out_path.c_str());
        return 2;
      }
      out << merged;
    }

    std::fprintf(stderr,
                 "[tcc_sweep] %zu runs, %llu dags committed, "
                 "%llu sim events, %.1fs wall (jobs=%d)\n",
                 result.runs,
                 static_cast<unsigned long long>(result.total_committed),
                 static_cast<unsigned long long>(result.total_sim_events),
                 result.wall_seconds, jobs);
    if (result.runs_with_violations > 0) {
      std::fprintf(stderr,
                   "[tcc_sweep] %zu run(s) with oracle violations; first: "
                   "%s\n",
                   result.runs_with_violations,
                   result.records[result.first_violation].id.c_str());
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tcc_sweep: %s\n", e.what());
    return 2;
  }
}
