// RunSpec: "a run" as data.
//
// Every driver in the repo (faastcc_sim, tcc_fuzz, tcc_sweep, the bench
// binaries) used to construct ClusterParams by hand, which meant there was
// no programmatic way to describe a run, ship it to a worker process, or
// store it in a sweep plan.  RunSpec fixes that: it wraps ClusterParams
// (seed and the oracle/trace toggles live inside) plus an optional named
// config from harness::configs, with an exact JSON round trip:
//
//   spec == from_json(parse(to_json(spec)))         (field for field)
//   text == to_json(from_json(parse(text)))          (for canonical text)
//
// Encoding rules: every tunable field is written, grouped by subsystem;
// decode accepts any subset (absent fields keep their defaults) but
// rejects unknown keys and ill-typed values with SpecError, so a typo in a
// plan file fails loudly instead of silently running the default.
// Durations are serialized in microseconds (the native unit); SIZE_MAX
// capacities as the string "inf".
//
// run_one(spec) is the single library entry point every driver funnels
// through: build the cluster, run it, summarize, check the oracle, export
// the trace — and return all of it as plain data.
#pragma once

#include <stdexcept>
#include <string>

#include "harness/json.h"
#include "harness/summary.h"

namespace faastcc::harness {

class SpecError : public std::runtime_error {
 public:
  explicit SpecError(const std::string& what) : std::runtime_error(what) {}
};

struct RunSpec {
  ClusterParams params;
  // Named config from harness::configs applied on top of `params` by
  // resolve() (empty = none).  Stored by name so a spec file stays
  // readable and the config table stays the single source of truth.
  std::string config;

  // Applies the named config's overlay to a copy of `params` and returns
  // the final ClusterParams.  Throws SpecError on an unknown name, or when
  // an enabled autoscaler's ceiling is not above cluster.partitions or its
  // floor is above it.
  ClusterParams resolve() const;
};

// Canonical JSON encoding (two-space indent, fixed field order).
std::string to_json(const RunSpec& spec);

// Strict decode; throws SpecError with a "spec.<group>.<field>: why"
// message.
RunSpec spec_from_json(const json::Value& doc);
RunSpec spec_from_text(std::string_view text);

// Overlay decode: applies only the fields present in `doc` onto `spec`.
// This is what sweep-plan axis patches use; full decode is overlay onto a
// default spec.
void apply_spec_patch(RunSpec& spec, const json::Value& doc);

// The one-field patch a `<group>.<key>=<value>` setting names (`<key>=...`
// for a top-level field such as `seed`), as the CLI's --set takes it.  A
// value that does not parse as JSON is taken as a JSON string, so
// `workload.pattern=bursty` works unquoted.  Throws SpecError without '='.
json::Value spec_setting(std::string_view setting);

// Everything a driver can want back from one run.  All fields except
// `trace_json` are deterministic per spec.
struct RunOutput {
  RunResult result;
  SummaryStats summary;

  // Consistency oracle (populated when params.check_consistency and the
  // system supports the oracle).
  bool checked = false;
  size_t violations = 0;
  std::string violation_kind;  // first violation's kind name ("" if clean)
  std::string oracle_report;   // human-readable counterexample ("" if clean)
  size_t oracle_installs = 0;
  size_t oracle_reads = 0;
  size_t oracle_commits = 0;

  // Chrome-trace JSON export (empty unless params.trace.enabled).
  std::string trace_json;
  uint64_t trace_spans_recorded = 0;
  uint64_t trace_spans_dropped = 0;

  uint64_t messages_sent = 0;  // network totals (schedule checksum)
};

// Builds the cluster described by spec.resolve(), runs it to completion
// and collects every output.  Throws SpecError if the spec is unsatisfiable
// (e.g. check_consistency on a system without an oracle).
RunOutput run_one(const RunSpec& spec);

// The run record: what the sweep runner merges and `faastcc_sim --json`
// prints.  A canonical, deterministic JSON object of the run's counts, its
// `summary` and `net` objects (one key per kSummaryFields row, in table
// order) and the oracle verdict.  Field order and number formatting are
// fixed so any process (serial driver, forked worker) serializing the same
// run produces identical bytes.
std::string run_output_to_json(const RunOutput& out);

// The run record as a table on stdout: the top-level counts, then one row
// per kSummaryFields row grouped by layer.
void print_run_table(const RunOutput& out);

// Parses SystemKind names ("faastcc", "hydrocache", "cloudburst").
bool parse_system(std::string_view name, SystemKind* out);
const char* system_spec_name(SystemKind s);

}  // namespace faastcc::harness
