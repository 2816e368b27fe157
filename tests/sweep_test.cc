// Sweep engine: plan expansion and the byte-identical merge guarantee.
#include <gtest/gtest.h>

#include "harness/sweep.h"

namespace faastcc::harness {
namespace {

// An 8-run plan small enough for a unit test: 2 configs x 2 zipf points x
// 2 seeds on a tiny oracle-checked cluster.
const char* kPlanText = R"({
  "schema": "faastcc.sweep_plan.v1",
  "base": {
    "system": "faastcc",
    "cluster": {"partitions": 3, "compute_nodes": 2, "clients": 3,
                "dags_per_client": 8},
    "workload": {"num_keys": 64},
    "run": {"check_consistency": true}
  },
  "axes": [
    {"name": "config", "configs": ["clean", "lossy"]},
    {"name": "zipf", "values": [
      {"label": "z0.8", "set": {"workload": {"zipf": 0.8}}},
      {"label": "z1.2", "set": {"workload": {"zipf": 1.2}}}
    ]},
    {"name": "seed", "seeds": {"base": 1, "count": 2}}
  ]
})";

TEST(SweepPlan, ExpandsTheCartesianProductInAxisOrder) {
  const SweepPlan plan = SweepPlan::from_text(kPlanText);
  ASSERT_EQ(plan.items.size(), 8u);
  EXPECT_EQ(plan.items[0].id, "clean/z0.8/s1");
  EXPECT_EQ(plan.items[1].id, "clean/z0.8/s2");
  EXPECT_EQ(plan.items[2].id, "clean/z1.2/s1");
  EXPECT_EQ(plan.items[7].id, "lossy/z1.2/s2");

  EXPECT_EQ(plan.items[0].spec.config, "clean");
  EXPECT_EQ(plan.items[7].spec.config, "lossy");
  EXPECT_DOUBLE_EQ(plan.items[0].spec.params.workload.zipf, 0.8);
  EXPECT_DOUBLE_EQ(plan.items[7].spec.params.workload.zipf, 1.2);
  EXPECT_EQ(plan.items[0].spec.params.seed, 1u);
  EXPECT_EQ(plan.items[7].spec.params.seed, 2u);
  // Base fields reach every item.
  for (const SweepItem& item : plan.items) {
    EXPECT_EQ(item.spec.params.partitions, 3u);
    EXPECT_TRUE(item.spec.params.check_consistency);
  }
}

TEST(SweepPlan, CellsDropOnlyTheSeedLabels) {
  const SweepPlan plan = SweepPlan::from_text(kPlanText);
  EXPECT_EQ(plan.items[0].cell, "clean/z0.8");
  EXPECT_EQ(plan.items[1].cell, "clean/z0.8");
  EXPECT_EQ(plan.items[7].cell, "lossy/z1.2");
  ASSERT_EQ(plan.items[7].axes.size(), 2u);
  EXPECT_EQ(plan.items[7].axes[0].first, "config");
  EXPECT_EQ(plan.items[7].axes[0].second, "lossy");
  EXPECT_EQ(plan.items[7].axes[1].first, "zipf");
  EXPECT_EQ(plan.items[7].axes[1].second, "z1.2");
  ASSERT_EQ(plan.plans.size(), 1u);
  EXPECT_EQ(plan.plans[0].axes, (std::vector<std::string>{"config", "zipf"}));
}

TEST(SweepPlan, NamedPlansPrefixIdsAndAppendIntoOneSweep) {
  SweepPlan plan;  // the first append adopts its plan whole
  plan.append(SweepPlan::from_text(R"({
    "name": "a", "title": "first",
    "axes": [{"name": "seed", "seeds": {"base": 1, "count": 2}}]
  })"));
  EXPECT_EQ(plan.items[0].id, "a/s1");
  EXPECT_EQ(plan.items[0].cell, "a");
  EXPECT_EQ(plan.items[0].plan, "a");
  plan.append(SweepPlan::from_text(R"({
    "name": "b",
    "axes": [{"name": "zipf", "values": [
      {"label": "z1", "set": {"workload": {"zipf": 1.0}}}]}]
  })"));
  ASSERT_EQ(plan.items.size(), 3u);
  ASSERT_EQ(plan.plans.size(), 2u);
  EXPECT_EQ(plan.plans[1].name, "b");
  EXPECT_EQ(plan.items[2].id, "b/z1");
  EXPECT_EQ(plan.items[2].cell, "b/z1");

  EXPECT_THROW(plan.append(SweepPlan::from_text(R"({"name": "b"})")),
               SpecError);
  EXPECT_THROW(plan.append(SweepPlan::from_text("{}")), SpecError);
}

TEST(SweepPlan, EmptyAxesGiveOneBaseRun) {
  const SweepPlan plan =
      SweepPlan::from_text(R"({"base": {"seed": 9}})");
  ASSERT_EQ(plan.items.size(), 1u);
  EXPECT_EQ(plan.items[0].spec.params.seed, 9u);
}

TEST(SweepPlan, RejectsMalformedPlans) {
  EXPECT_THROW(SweepPlan::from_text("not json"), SpecError);
  EXPECT_THROW(SweepPlan::from_text(R"({"schema": "bogus.v0"})"), SpecError);
  EXPECT_THROW(SweepPlan::from_text(R"({"extra": 1})"), SpecError);
  EXPECT_THROW(SweepPlan::from_text(R"({"axes": [{"name": "x"}]})"),
               SpecError);
  EXPECT_THROW(SweepPlan::from_text(
                   R"({"axes": [{"values": [{"set": {}}]}]})"),
               SpecError);
  EXPECT_THROW(SweepPlan::from_text(
                   R"({"axes": [{"seeds": {"base": 1}}]})"),
               SpecError);
  EXPECT_THROW(
      SweepPlan::from_text(
          R"({"base": {"cluster": {"no_such_field": 1}}})"),
      SpecError);
}

TEST(Sweep, MergedArtifactIsByteIdenticalAcrossJobs) {
  const SweepPlan plan = SweepPlan::from_text(kPlanText);

  SweepOptions serial;
  serial.jobs = 1;
  const std::string merged1 = merge_to_json(plan, run_sweep(plan, serial));

  for (int jobs : {2, 4, 8}) {
    SweepOptions opts;
    opts.jobs = jobs;
    const std::string merged = merge_to_json(plan, run_sweep(plan, opts));
    EXPECT_EQ(merged, merged1) << "jobs=" << jobs;
  }

  // Repeat runs are byte-identical too (no wall-clock in the artifact).
  const std::string merged_again =
      merge_to_json(plan, run_sweep(plan, serial));
  EXPECT_EQ(merged_again, merged1);
}

TEST(Sweep, MergedArtifactCarriesRunsCellsAndTotals) {
  const SweepPlan plan = SweepPlan::from_text(kPlanText);
  SweepOptions opts;
  opts.jobs = 2;
  const SweepResult result = run_sweep(plan, opts);
  EXPECT_EQ(result.runs, 8u);
  EXPECT_EQ(result.runs_with_violations, 0u);
  EXPECT_GT(result.total_committed, 0u);

  const json::Value doc = json::parse(merge_to_json(plan, result));
  EXPECT_EQ(doc.find("schema")->as_string(), "faastcc.sweep.v2");
  ASSERT_EQ(doc.find("runs")->items.size(), 8u);
  const json::Value& first = doc.find("runs")->items[0];
  EXPECT_EQ(first.find("id")->as_string(), "clean/z0.8/s1");
  EXPECT_EQ(first.find("cell")->as_string(), "clean/z0.8");
  EXPECT_TRUE(first.find("result")->find("oracle")->find("checked")
                  ->as_bool());
  // 2 configs x 2 zipf points = 4 cells in plan order, each aggregating 2
  // seeds and keyed by the plan's own axes.
  const std::vector<json::Value>& cells = doc.find("cells")->items;
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].find("cell")->as_string(), "clean/z0.8");
  EXPECT_EQ(cells[3].find("axes")->find("config")->as_string(), "lossy");
  EXPECT_EQ(cells[3].find("axes")->find("zipf")->as_string(), "z1.2");
  for (const json::Value& cell : cells) {
    EXPECT_EQ(cell.find("runs")->as_u64(), 2u);
    EXPECT_EQ(cell.find("checked")->as_u64(), 2u);
    EXPECT_EQ(cell.find("violations")->as_u64(), 0u);
  }
  // The mean is over the cell's two runs.
  const std::vector<json::Value>& runs = doc.find("runs")->items;
  const auto latency = [](const json::Value& v) {
    return v.find("result")->find("summary")->find("latency_med_ms")
        ->as_double();
  };
  EXPECT_DOUBLE_EQ(
      cells[0].find("mean")->find("latency_med_ms")->as_double(),
      (latency(runs[0]) + latency(runs[1])) / 2);
  EXPECT_EQ(doc.find("totals")->find("runs")->as_u64(), 8u);
  EXPECT_EQ(doc.find("totals")->find("committed")->as_u64(),
            result.total_committed);
}

TEST(Sweep, CellsAreKeyedByThePlansOwnAxes) {
  // Each axis moves a knob that is not part of the run identity (static
  // transactions, cache capacity, a client mechanism flag); every value
  // must still get its own cell.
  const SweepPlan plan = SweepPlan::from_text(R"({
    "name": "knobs",
    "title": "knobs outside the run identity",
    "base": {
      "system": "faastcc",
      "cluster": {"partitions": 2, "compute_nodes": 2, "clients": 2,
                  "dags_per_client": 3},
      "workload": {"num_keys": 32}
    },
    "axes": [
      {"name": "txns", "values": [
        {"label": "dynamic"},
        {"label": "static", "set": {"workload": {"static_txns": true}}}]},
      {"name": "cache", "values": [
        {"label": "inf"},
        {"label": "c8", "set": {"cluster": {"cache_capacity": 8}}}]},
      {"name": "promises", "values": [
        {"label": "on"},
        {"label": "off", "set": {"faastcc": {"use_promises": false}}}]}
    ],
    "paper": {"tables": [{"metric": "latency_med_ms", "paper": {"x": 1.5}}]}
  })");
  SweepOptions opts;
  opts.jobs = 2;
  const json::Value doc =
      json::parse(merge_to_json(plan, run_sweep(plan, opts)));
  const std::vector<json::Value>& cells = doc.find("cells")->items;
  ASSERT_EQ(cells.size(), 8u);
  EXPECT_EQ(cells[0].find("cell")->as_string(), "knobs/dynamic/inf/on");
  EXPECT_EQ(cells[7].find("cell")->as_string(), "knobs/static/c8/off");
  for (const json::Value& cell : cells) {
    EXPECT_EQ(cell.find("runs")->as_u64(), 1u);
    EXPECT_EQ(cell.find("plan")->as_string(), "knobs");
  }
  // The plan's self-description, paper block included, reaches the
  // artifact verbatim.
  const json::Value& info = doc.find("plans")->items.at(0);
  EXPECT_EQ(info.find("name")->as_string(), "knobs");
  EXPECT_EQ(info.find("title")->as_string(), "knobs outside the run identity");
  EXPECT_EQ(info.find("axes")->items.size(), 3u);
  EXPECT_EQ(json::to_text(*info.find("paper"), true),
            json::to_text(plan.plans[0].paper, true));
}

TEST(Sweep, ViolationsAreReportedInPlanOrder) {
  // chaos-lost-ack reproduces a historical bug deterministically, so the
  // sweep must attribute the violation to the right run under any jobs.
  const char* plan_text = R"({
    "base": {
      "system": "faastcc",
      "cluster": {"partitions": 3, "compute_nodes": 2, "clients": 3,
                  "dags_per_client": 8},
      "workload": {"num_keys": 64},
      "run": {"check_consistency": true}
    },
    "axes": [
      {"name": "config", "configs": ["clean", "chaos-lost-ack"]},
      {"name": "seed", "seeds": {"base": 1, "count": 2}}
    ]
  })";
  const SweepPlan plan = SweepPlan::from_text(plan_text);

  SweepOptions serial;
  serial.jobs = 1;
  const SweepResult r1 = run_sweep(plan, serial);
  SweepOptions parallel;
  parallel.jobs = 4;
  const SweepResult r4 = run_sweep(plan, parallel);

  ASSERT_NE(r1.first_violation, SIZE_MAX);
  EXPECT_EQ(r1.first_violation, r4.first_violation);
  const RunRecord& rec1 = r1.records[r1.first_violation];
  const RunRecord& rec4 = r4.records[r4.first_violation];
  EXPECT_EQ(rec1.id, rec4.id);
  EXPECT_EQ(rec1.violation_kind, rec4.violation_kind);
  EXPECT_EQ(rec1.json, rec4.json);
  EXPECT_EQ(merge_to_json(plan, r1), merge_to_json(plan, r4));
}

TEST(Sweep, SerialStopOnViolationStopsEarlyWithTheSameFirstVerdict) {
  const char* plan_text = R"({
    "base": {
      "system": "faastcc",
      "cluster": {"partitions": 3, "compute_nodes": 2, "clients": 3,
                  "dags_per_client": 8},
      "workload": {"num_keys": 64},
      "run": {"check_consistency": true}
    },
    "axes": [
      {"name": "config", "configs": ["chaos-lost-ack", "clean"]},
      {"name": "seed", "seeds": {"base": 1, "count": 2}}
    ]
  })";
  const SweepPlan plan = SweepPlan::from_text(plan_text);
  SweepOptions opts;
  opts.jobs = 1;
  opts.stop_on_violation = true;
  const SweepResult r = run_sweep(plan, opts);
  ASSERT_NE(r.first_violation, SIZE_MAX);
  EXPECT_EQ(r.records[r.first_violation].id, "chaos-lost-ack/s1");
  // The clean runs after the stop never executed.
  EXPECT_LT(r.runs, plan.items.size());
  EXPECT_FALSE(r.records.back().ran);
}

}  // namespace
}  // namespace faastcc::harness
