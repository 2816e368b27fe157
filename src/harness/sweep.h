// Multi-process sweep runner: shard a declarative sweep plan across
// cores, merge the results deterministically.
//
// The simulator is single-threaded and deterministic per seed, so
// parallelism belongs *across* runs: each item of an expanded plan is an
// independent RunSpec whose outcome depends only on the spec.  The
// executor forks one worker per run (at most `jobs` in flight), streams
// each worker's canonical per-run JSON record back over a pipe, and merges
// the records in plan order — so the merged artifact is byte-identical
// regardless of completion order, of `--jobs`, and of whether runs were
// forked at all (jobs<=1 runs in-process through the exact same
// serialization path).
//
// Wall-clock timing is intentionally NOT part of the merged artifact
// (it would break the byte-identical guarantee); it is returned separately
// and reported on stderr.
//
// Plan format (JSON, see docs/sweeps.md):
//   {
//     "schema": "faastcc.sweep_plan.v1",
//     "name":  "skew",             (optional; prefixes every run id)
//     "title": "...",              (optional; copied into the artifact)
//     "base":  { ...RunSpec patch... },
//     "axes": [
//       {"name": "cluster", "values": [
//           {"label": "p64", "set": {"cluster": {"partitions": 64}}},
//           ...]},
//       {"name": "config", "configs": ["clean", "lossy"]},
//       {"name": "seed", "seeds": {"base": 1, "count": 8}}
//     ],
//     "paper": { ... }             (optional; copied into the artifact)
//   }
// Expansion is the cartesian product of the axes (first axis outermost);
// each item's id joins the axis labels with '/'.  Seed axes are
// replicates: an item's cell is its id without the seed labels, and the
// merge aggregates the runs of one cell.  So cells are keyed by exactly
// the plan's own axes, whatever knobs those axes move.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/run_spec.h"

namespace faastcc::harness {

struct SweepItem {
  RunSpec spec;
  std::string id;    // stable label, e.g. "p64/z0.60/s1"
  std::string cell;  // id without seed labels, e.g. "p64/z0.60"
  std::string plan;  // name of the plan the item came from ("" if unnamed)
  // (axis name, label) for each non-seed axis, in axis order.
  std::vector<std::pair<std::string, std::string>> axes;
};

// What a plan document says about itself, carried into the artifact.
struct PlanInfo {
  std::string name;
  std::string title;
  std::vector<std::string> axes;  // non-seed axis names
  json::Value paper;              // null when the plan has no "paper"
};

struct SweepPlan {
  std::vector<PlanInfo> plans;  // one per source plan document
  std::vector<SweepItem> items;

  // Expands a plan document (throws SpecError on malformed plans).
  static SweepPlan from_json(const json::Value& doc);
  static SweepPlan from_text(std::string_view text);

  // Appends another plan's runs after this one's, so several plans merge
  // into one artifact.  Once both sides hold plans, every plan must be
  // named, and no two alike.
  void append(SweepPlan other);
};

struct SweepOptions {
  int jobs = 1;          // <=1: in-process serial; >1: fork-per-run pool
  bool verbose = false;  // per-run progress lines on stderr
  // Serial mode only: stop after the first run with oracle violations
  // (the remaining records stay empty).  Parallel mode always runs the
  // whole plan; callers scan records in plan order, so the *first*
  // violating run is identical either way.
  bool stop_on_violation = false;
};

// One run's outcome: the canonical record plus fields parsed back out of
// it for callers that branch on verdicts.
struct RunRecord {
  std::string id;
  std::string json;  // run_output_to_json bytes (exactly what merges)
  bool ran = false;  // false only after a serial stop_on_violation stop
  uint64_t committed = 0;
  uint64_t sim_events = 0;
  uint64_t messages = 0;
  bool checked = false;
  size_t violations = 0;
  std::string violation_kind;
  std::string oracle_report;
};

struct SweepResult {
  std::vector<RunRecord> records;  // plan order, one per item
  uint64_t total_committed = 0;
  uint64_t total_sim_events = 0;
  uint64_t total_messages = 0;
  size_t runs = 0;                  // records actually executed
  size_t runs_with_violations = 0;
  double wall_seconds = 0;  // NOT in the merged artifact

  // Plan-order index of the first violating run, or SIZE_MAX.
  size_t first_violation = SIZE_MAX;
};

// Executes the plan.  Throws SpecError on unsatisfiable specs and
// std::runtime_error if a worker process dies without delivering a record
// (a crash is a harness bug, not a data point — no artifact is produced).
SweepResult run_sweep(const SweepPlan& plan, const SweepOptions& opts);

// The merged artifact (schema "faastcc.sweep.v2"): the source plans'
// self-descriptions, per-run records in plan order, per-cell aggregates in
// order of first appearance (checksums summed, every summary field
// averaged) and global totals.  Byte-identical for a given plan regardless
// of jobs/completion order.
std::string merge_to_json(const SweepPlan& plan, const SweepResult& result);

}  // namespace faastcc::harness
