// RunSpec JSON round trip, strict decode errors and the Flags parser.
#include <gtest/gtest.h>

#include "harness/configs.h"
#include "harness/flags.h"
#include "harness/run_spec.h"

namespace faastcc::harness {
namespace {

// ---- JSON primitives -----------------------------------------------------

TEST(Json, ParsesScalarsExactly) {
  const json::Value doc = json::parse(
      R"({"b": true, "i": -9223372036854775808, "u": 18446744073709551615,)"
      R"( "d": 0.25, "s": "a\"b", "n": null})");
  EXPECT_TRUE(doc.find("b")->as_bool());
  EXPECT_EQ(doc.find("i")->as_i64(), INT64_MIN);
  EXPECT_EQ(doc.find("u")->as_u64(), UINT64_MAX);
  EXPECT_DOUBLE_EQ(doc.find("d")->as_double(), 0.25);
  EXPECT_EQ(doc.find("s")->as_string(), "a\"b");
  EXPECT_TRUE(doc.find("n")->is_null());
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, RejectsMalformedDocuments) {
  EXPECT_THROW(json::parse("{"), json::ParseError);
  EXPECT_THROW(json::parse("{} trailing"), json::ParseError);
  EXPECT_THROW(json::parse(R"({"a": 1, "a": 2})"), json::ParseError);
  EXPECT_THROW(json::parse(R"({"a": 01})"), json::ParseError);
  EXPECT_THROW(json::parse(""), json::ParseError);
}

TEST(Json, TypedAccessorsRejectMismatches) {
  const json::Value doc = json::parse(R"({"s": "x", "neg": -1, "d": 1.5})");
  EXPECT_THROW(doc.find("s")->as_u64(), json::ParseError);
  EXPECT_THROW(doc.find("neg")->as_u64(), json::ParseError);
  EXPECT_THROW(doc.find("d")->as_i64(), json::ParseError);
}

TEST(Json, WriterOutputIsDeterministic) {
  auto build = [] {
    json::Writer w(/*compact=*/true);
    w.begin_object();
    w.key("x");
    w.number(0.1);
    w.key("y");
    w.u64(7);
    w.end_object();
    return w.take();
  };
  EXPECT_EQ(build(), build());
  // %.17g round-trips doubles exactly.
  const json::Value doc = json::parse(build());
  EXPECT_EQ(doc.find("x")->as_double(), 0.1);
}

// ---- RunSpec round trip --------------------------------------------------

TEST(RunSpec, DefaultSpecRoundTripsByteForByte) {
  RunSpec spec;
  const std::string text = to_json(spec);
  const RunSpec back = spec_from_text(text);
  EXPECT_EQ(to_json(back), text);
}

TEST(RunSpec, NonDefaultFieldsSurviveTheRoundTrip) {
  RunSpec spec;
  spec.config = "lossy";
  spec.params.system = SystemKind::kHydroCache;
  spec.params.seed = 12345;
  spec.params.partitions = 64;
  spec.params.cache_capacity = 4096;
  spec.params.workload.zipf = 1.37;
  spec.params.workload.static_txns = true;
  spec.params.tcc.gossip_period = milliseconds(131);
  spec.params.tcc.stab_topology = storage::StabTopology::kTree;
  spec.params.tcc.tree_fanout = 8;
  spec.params.tcc.push_coalescing = true;
  spec.params.faults.loss_prob = 0.015;
  spec.params.faults.crashes.push_back(
      net::CrashWindow{101, milliseconds(300), milliseconds(360)});
  spec.params.check_consistency = true;

  const RunSpec back = spec_from_text(to_json(spec));
  EXPECT_EQ(back.config, "lossy");
  EXPECT_EQ(back.params.system, SystemKind::kHydroCache);
  EXPECT_EQ(back.params.seed, 12345u);
  EXPECT_EQ(back.params.partitions, 64u);
  EXPECT_EQ(back.params.cache_capacity, 4096u);
  EXPECT_DOUBLE_EQ(back.params.workload.zipf, 1.37);
  EXPECT_TRUE(back.params.workload.static_txns);
  EXPECT_EQ(back.params.tcc.gossip_period, milliseconds(131));
  EXPECT_EQ(back.params.tcc.stab_topology, storage::StabTopology::kTree);
  EXPECT_EQ(back.params.tcc.tree_fanout, 8);
  EXPECT_TRUE(back.params.tcc.push_coalescing);
  EXPECT_DOUBLE_EQ(back.params.faults.loss_prob, 0.015);
  ASSERT_EQ(back.params.faults.crashes.size(), 1u);
  EXPECT_EQ(back.params.faults.crashes[0].addr, 101u);
  EXPECT_EQ(back.params.faults.crashes[0].from, milliseconds(300));
  EXPECT_TRUE(back.params.check_consistency);
  EXPECT_EQ(to_json(back), to_json(spec));
}

TEST(RunSpec, ReplicationGroupRoundTrips) {
  RunSpec spec;
  spec.params.replication.factor = 2;
  spec.params.replication.lease_timeout = milliseconds(45);
  const RunSpec back = spec_from_text(to_json(spec));
  EXPECT_EQ(back.params.replication.factor, 2u);
  EXPECT_EQ(back.params.replication.lease_timeout, milliseconds(45));
  EXPECT_EQ(to_json(back), to_json(spec));
  EXPECT_THROW(spec_from_text(R"({"replication": {"factro": 1}})"),
               SpecError);
}

TEST(RunSpec, InfCapacityRoundTrips) {
  RunSpec spec;
  spec.params.cache_capacity = SIZE_MAX;
  const RunSpec back = spec_from_text(to_json(spec));
  EXPECT_EQ(back.params.cache_capacity, SIZE_MAX);
}

TEST(RunSpec, StrictDecodeRejectsUnknownKeys) {
  EXPECT_THROW(spec_from_text(R"({"sedd": 1})"), SpecError);
  EXPECT_THROW(spec_from_text(R"({"cluster": {"partitoins": 4}})"),
               SpecError);
  EXPECT_THROW(spec_from_text(R"({"workload": 7})"), SpecError);
}

TEST(RunSpec, StrictDecodeRejectsIllTypedValues) {
  EXPECT_THROW(spec_from_text(R"({"seed": "abc"})"), SpecError);
  EXPECT_THROW(spec_from_text(R"({"seed": -1})"), SpecError);
  EXPECT_THROW(spec_from_text(R"({"system": "dynamo"})"), SpecError);
  EXPECT_THROW(spec_from_text(R"({"config": "no-such-config"})"), SpecError);
  EXPECT_THROW(
      spec_from_text(R"({"tcc": {"stabilization_topology": "ring"}})"),
      SpecError);
  EXPECT_THROW(spec_from_text(R"({"faults": {"crashes": 3}})"), SpecError);
  EXPECT_THROW(spec_from_text("[1, 2]"), SpecError);
  EXPECT_THROW(spec_from_text("{nope"), SpecError);
}

// Every reader error names the field's full path, whether the reader
// rejected the JSON type or the value itself.
TEST(RunSpec, ReaderErrorsNameTheFullFieldPath) {
  const std::pair<const char*, const char*> cases[] = {
      {R"({"workload": {"pattern": "x"}})", "spec.workload.pattern: "},
      {R"({"cluster": {"dags_per_client": 4294967296}})",
       "spec.cluster.dags_per_client: out of int range"},
      {R"({"tcc": {"stabilization_topology": "ring"}})",
       "spec.tcc.stabilization_topology: "},
      {R"({"faults": {"crashes": [{"adr": 1}]}})",
       "spec.faults.crashes: unknown crash-window key"},
      {R"({"workload": {"zipf": "a"}})", "spec.workload.zipf: "},
  };
  for (const auto& [doc, prefix] : cases) {
    try {
      spec_from_text(doc);
      ADD_FAILURE() << doc << " was accepted";
    } catch (const SpecError& e) {
      EXPECT_EQ(std::string(e.what()).rfind(prefix, 0), 0u)
          << doc << " -> " << e.what();
    }
  }
}

TEST(RunSpec, SettingIsAOneFieldPatch) {
  RunSpec spec;
  apply_spec_patch(spec, spec_setting("workload.pattern=bursty"));
  apply_spec_patch(spec, spec_setting("cluster.partitions=4"));
  apply_spec_patch(spec, spec_setting("cluster.cache_capacity=inf"));
  apply_spec_patch(spec, spec_setting("system=hydrocache"));
  apply_spec_patch(
      spec, spec_setting(R"(faults.crashes=[{"addr": 101, "until_us": 5}])"));
  EXPECT_EQ(spec.params.workload.pattern, workload::LoadPattern::kBursty);
  EXPECT_EQ(spec.params.partitions, 4u);
  EXPECT_EQ(spec.params.cache_capacity, SIZE_MAX);
  EXPECT_EQ(spec.params.system, SystemKind::kHydroCache);
  ASSERT_EQ(spec.params.faults.crashes.size(), 1u);
  EXPECT_EQ(spec.params.faults.crashes[0].until, 5);
  EXPECT_THROW(spec_setting("cluster.partitions"), SpecError);
  EXPECT_THROW(apply_spec_patch(spec, spec_setting("cluster.partitoins=4")),
               SpecError);
  EXPECT_THROW(apply_spec_patch(spec, spec_setting("workload.zipf=high")),
               SpecError);
}

TEST(RunSpec, PatchOnlyTouchesPresentFields) {
  RunSpec spec;
  spec.params.partitions = 64;
  spec.params.workload.zipf = 1.2;
  apply_spec_patch(spec, json::parse(R"({"cluster": {"clients": 3}})"));
  EXPECT_EQ(spec.params.clients, 3u);
  EXPECT_EQ(spec.params.partitions, 64u);   // untouched
  EXPECT_DOUBLE_EQ(spec.params.workload.zipf, 1.2);  // untouched
}

TEST(RunSpec, ResolveAppliesTheNamedConfig) {
  RunSpec spec;
  spec.config = "tiny-cache";
  const ClusterParams p = spec.resolve();
  EXPECT_EQ(p.cache_capacity, 8u);
  EXPECT_DOUBLE_EQ(p.workload.zipf, 1.2);
  // resolve() never mutates the spec itself.
  EXPECT_EQ(spec.params.cache_capacity, ClusterParams{}.cache_capacity);

  spec.config = "no-such-config";
  EXPECT_THROW(spec.resolve(), SpecError);
}

TEST(RunSpec, ResolveRejectsAutoscaleBoundsThatMissThePartitionCount) {
  // autoscale-spike's 2..6 bounds bracket a 4-partition base only.
  RunSpec spec;
  spec.config = "autoscale-spike";
  spec.params.partitions = 4;
  const ClusterParams p = spec.resolve();
  EXPECT_EQ(p.autoscale.max_partitions, 6u);
  EXPECT_EQ(p.autoscale.min_partitions, 2u);

  const std::pair<size_t, const char*> cases[] = {
      {16, "spec.autoscale.max_partitions: 6 must exceed cluster.partitions "
           "(16)"},
      {6, "spec.autoscale.max_partitions: 6 must exceed cluster.partitions "
          "(6)"},
      {1, "spec.autoscale.min_partitions: 2 exceeds cluster.partitions (1)"},
  };
  for (const auto& [partitions, message] : cases) {
    spec.params.partitions = partitions;
    try {
      spec.resolve();
      ADD_FAILURE() << partitions << " partitions were accepted";
    } catch (const SpecError& e) {
      EXPECT_STREQ(e.what(), message);
    }
  }
  // A disabled scaler (ceiling 0) bounds nothing.
  RunSpec off;
  off.params.autoscale.min_partitions = 100;
  EXPECT_NO_THROW(off.resolve());
}

TEST(RunSpec, RunOneRejectsOracleOnNonFaastccSystems) {
  RunSpec spec;
  spec.params.system = SystemKind::kCloudburst;
  spec.params.check_consistency = true;
  EXPECT_THROW(run_one(spec), SpecError);
}

TEST(Configs, RegistryFindsEveryListedName) {
  EXPECT_FALSE(all_configs().empty());
  for (const NamedConfig& c : all_configs()) {
    EXPECT_EQ(find_config(c.name), &c);
  }
  EXPECT_EQ(find_config("definitely-not-a-config"), nullptr);
}

// ---- Flags ---------------------------------------------------------------

struct FlagFixture {
  bool b = false;
  int i = 7;
  uint64_t u = 42;
  double d = 1.5;
  std::string s = "x";

  Flags flags{"prog", "test program"};
  FlagFixture() {
    flags.boolean("bool", "a bool", &b);
    flags.integer("int", "an int", &i);
    flags.u64("u64", "a u64", &u);
    flags.real("real", "a double", &d);
    flags.str("str", "a string", &s);
  }

  bool parse(std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    return flags.parse(static_cast<int>(args.size()),
                       const_cast<char**>(args.data()));
  }
};

TEST(Flags, ParsesEveryRegisteredType) {
  FlagFixture f;
  ASSERT_TRUE(f.parse({"--bool", "--int=-3", "--u64=99", "--real=0.25",
                       "--str=hello"}))
      << f.flags.error();
  EXPECT_TRUE(f.b);
  EXPECT_EQ(f.i, -3);
  EXPECT_EQ(f.u, 99u);
  EXPECT_DOUBLE_EQ(f.d, 0.25);
  EXPECT_EQ(f.s, "hello");
}

TEST(Flags, DefaultsSurviveWhenFlagsAreAbsent) {
  FlagFixture f;
  ASSERT_TRUE(f.parse({}));
  EXPECT_FALSE(f.b);
  EXPECT_EQ(f.i, 7);
  EXPECT_EQ(f.u, 42u);
  EXPECT_EQ(f.s, "x");
}

TEST(Flags, RejectsUnknownFlags) {
  FlagFixture f;
  EXPECT_FALSE(f.parse({"--nope=1"}));
  EXPECT_NE(f.flags.error().find("nope"), std::string::npos);
}

TEST(Flags, RejectsMissingAndMalformedValues) {
  {
    FlagFixture f;
    EXPECT_FALSE(f.parse({"--int"}));
  }
  {
    FlagFixture f;
    EXPECT_FALSE(f.parse({"--int=abc"}));
  }
  {
    FlagFixture f;
    EXPECT_FALSE(f.parse({"--u64=-5"}));
  }
  {
    FlagFixture f;
    EXPECT_FALSE(f.parse({"--bool=maybe"}));
  }
}

TEST(Flags, ExplicitBooleanValuesWork) {
  FlagFixture f;
  ASSERT_TRUE(f.parse({"--bool=true"}));
  EXPECT_TRUE(f.b);
  FlagFixture g;
  ASSERT_TRUE(g.parse({"--bool=false"}));
  EXPECT_FALSE(g.b);
}

TEST(Flags, HelpIsRequestableAndUsageListsFlags) {
  FlagFixture f;
  ASSERT_TRUE(f.parse({"--help"}));
  EXPECT_TRUE(f.flags.help_requested());
  const std::string usage = f.flags.usage();
  EXPECT_NE(usage.find("--real=<x>"), std::string::npos);
  EXPECT_NE(usage.find("a double"), std::string::npos);
}

TEST(Flags, CustomFlagRejectionBecomesAParseError) {
  Flags flags("prog", "t");
  flags.custom("pair", "a:b", "a pair", [](const std::string& v) {
    return v.find(':') != std::string::npos;
  });
  const char* bad[] = {"prog", "--pair=nope"};
  EXPECT_FALSE(flags.parse(2, const_cast<char**>(bad)));
  const char* good[] = {"prog", "--pair=a:b"};
  Flags flags2("prog", "t");
  flags2.custom("pair", "a:b", "a pair", [](const std::string& v) {
    return v.find(':') != std::string::npos;
  });
  EXPECT_TRUE(flags2.parse(2, const_cast<char**>(good)));
}

TEST(Flags, CustomFlagWithoutValueNameMayBeBare) {
  std::vector<std::string> seen;
  Flags flags("prog", "t");
  flags.custom("opt", "", "optional value", [&](const std::string& v) {
    seen.push_back(v);
    return true;
  });
  const char* args[] = {"prog", "--opt", "--opt=x"};
  ASSERT_TRUE(flags.parse(3, const_cast<char**>(args))) << flags.error();
  EXPECT_EQ(seen, (std::vector<std::string>{"", "x"}));
}

TEST(Flags, SplitCsv) {
  EXPECT_TRUE(Flags::split_csv("").empty());
  const auto parts = Flags::split_csv("a,b,c");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

}  // namespace
}  // namespace faastcc::harness
