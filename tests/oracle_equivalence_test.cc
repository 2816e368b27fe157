// Equivalence of the online consistency oracle with the batch reference
// model it replaced.  One run tees its history into both checkers; they
// must agree on the verdict and on the set of violation kinds for every
// tcc_fuzz config (both chaos regressions included) over three seeds, at
// the fuzzer's smoke shape.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>

#include "harness/configs.h"
#include "harness/run_spec.h"
#include "reference_oracle.h"

namespace faastcc::harness {
namespace {

using check::Violation;

// tcc_fuzz's run shape: a small hot cluster with the oracle attached and
// the seed-rotated workload shape.
ClusterParams fuzz_params(const std::string& config, uint64_t seed) {
  RunSpec spec;
  ClusterParams& p = spec.params;
  p.system = SystemKind::kFaasTcc;
  p.seed = seed;
  p.partitions = 3;
  p.compute_nodes = 2;
  p.clients = 4;
  p.dags_per_client = 12;
  p.workload.num_keys = 64;
  p.workload.zipf = 1.0;
  p.check_consistency = true;
  apply_fuzz_shape(p, seed);
  spec.config = config;
  return spec.resolve();
}

std::set<std::string> kinds(const std::vector<Violation>& vs) {
  std::set<std::string> out;
  for (const Violation& v : vs) out.insert(check::violation_name(v.kind));
  return out;
}

std::string joined(const std::set<std::string>& s) {
  std::string out;
  for (const std::string& k : s) out += (out.empty() ? "" : ",") + k;
  return out.empty() ? "(none)" : out;
}

std::vector<std::string> config_names() {
  std::vector<std::string> names;
  for (const NamedConfig& c : all_configs()) names.emplace_back(c.name);
  return names;
}

class OracleEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(OracleEquivalence, SameVerdictAndViolationKinds) {
  const auto& [config, seed] = GetParam();
  check::ReferenceOracle reference;
  Cluster cluster(fuzz_params(config, seed), &reference);
  cluster.run();
  ASSERT_NE(cluster.oracle(), nullptr);
  const std::vector<Violation> online = cluster.oracle()->check();
  const std::vector<Violation> batch = reference.check();
  EXPECT_EQ(online.empty(), batch.empty())
      << "online: " << cluster.oracle()->report(online);
  EXPECT_EQ(joined(kinds(online)), joined(kinds(batch)))
      << "online: " << cluster.oracle()->report(online);
}

// Both chaos configs re-enable a historical bug; the online oracle must
// still catch each of them on at least one of the three seeds (not every
// short run happens to trip the bug).
TEST(OracleEquivalence, ChaosRegressionsAreFlagged) {
  for (const NamedConfig& c : all_configs()) {
    if (!c.chaos) continue;
    bool flagged = false;
    for (uint64_t seed = 1; seed <= 3 && !flagged; ++seed) {
      Cluster cluster(fuzz_params(c.name, seed));
      cluster.run();
      flagged = !cluster.oracle()->check().empty();
    }
    EXPECT_TRUE(flagged) << c.name;
  }
}

// Ghost executions past the retention window.  With both at-most-once
// windows off, duplicated starts and triggers re-run functions after
// their transaction completed; over more completions than the oracle
// retains, the earliest transactions retire mid-run.  Every ghost read
// must still arrive inside the window (none unplaced) and the verdicts
// must match; at least one seed must show the ghosts' violations.
TEST(OracleEquivalence, AgreePastTheRetentionWindow) {
  bool flagged = false;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    ClusterParams p = fuzz_params("lossy", seed);
    p.clients = 8;
    p.dags_per_client = 140;
    p.faults.dup_prob = 0.03;
    p.node.executed_dedup_cap = 0;
    p.scheduler.start_dedup_cap = 0;
    check::ReferenceOracle reference;
    Cluster cluster(p, &reference);
    const RunResult r = cluster.run();
    ASSERT_GT(r.committed, check::ConsistencyOracle::kRetainedCompletions);
    const check::ConsistencyOracle& online = *cluster.oracle();
    EXPECT_EQ(online.unplaced_reads(), 0u) << "seed " << seed;
    const std::vector<Violation> vs = online.check();
    EXPECT_EQ(joined(kinds(vs)), joined(kinds(reference.check())))
        << "seed " << seed << ": " << online.report(vs);
    flagged = flagged || !vs.empty();
  }
  EXPECT_TRUE(flagged);
}

INSTANTIATE_TEST_SUITE_P(
    FuzzConfigs, OracleEquivalence,
    ::testing::Combine(::testing::ValuesIn(config_names()),
                       ::testing::Values(uint64_t{1}, uint64_t{2},
                                         uint64_t{3})),
    [](const auto& info) {
      std::string name = std::get<0>(info.param) + "_s" +
                         std::to_string(std::get<1>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace faastcc::harness
