#include "harness/run_spec.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <sstream>
#include <utility>
#include <vector>

#include "harness/configs.h"
#include "harness/table.h"

namespace faastcc::harness {

namespace {

// One serializable field: a writer (into canonical JSON) and a reader
// (strict overlay-apply).  Both close over pointers into one RunSpec, so a
// single table drives encode and decode and the two can never diverge.
struct Field {
  const char* name;
  std::function<void(json::Writer&)> write;
  std::function<void(const json::Value&)> read;
};

struct Group {
  const char* name;
  std::vector<Field> fields;
};

// Readers throw the bare reason; read_field() prefixes the field's path.
[[noreturn]] void bad_value(const char* why) { throw SpecError(why); }

class SpecFields {
 public:
  explicit SpecFields(RunSpec& s) { build(s); }

  void encode(json::Writer& w) const {
    w.begin_object();
    for (const Field& f : top_) {
      w.key(f.name);
      f.write(w);
    }
    for (const Group& g : groups_) {
      w.key(g.name);
      w.begin_object();
      for (const Field& f : g.fields) {
        w.key(f.name);
        f.write(w);
      }
      w.end_object();
    }
    w.end_object();
  }

  void apply(const json::Value& doc) const {
    if (!doc.is_object()) throw SpecError("spec: expected a JSON object");
    for (const auto& [key, value] : doc.fields) {
      if (const Field* f = find_top(key)) {
        read_field("", *f, value);
        continue;
      }
      const Group* g = find_group(key);
      if (g == nullptr) {
        throw SpecError("spec: unknown key '" + key + "'");
      }
      if (!value.is_object()) {
        throw SpecError("spec." + key + ": expected an object");
      }
      for (const auto& [fkey, fvalue] : value.fields) {
        const Field* f = nullptr;
        for (const Field& cand : g->fields) {
          if (fkey == cand.name) {
            f = &cand;
            break;
          }
        }
        if (f == nullptr) {
          throw SpecError("spec." + std::string(g->name) + ": unknown key '" +
                          fkey + "'");
        }
        read_field(std::string(g->name) + ".", *f, fvalue);
      }
    }
  }

 private:
  static void read_field(const std::string& prefix, const Field& f,
                         const json::Value& v) {
    try {
      f.read(v);
    } catch (const std::runtime_error& e) {  // ParseError or SpecError
      throw SpecError("spec." + prefix + f.name + ": " + e.what());
    }
  }

  const Field* find_top(std::string_view key) const {
    for (const Field& f : top_) {
      if (key == f.name) return &f;
    }
    return nullptr;
  }

  const Group* find_group(std::string_view key) const {
    for (const Group& g : groups_) {
      if (key == g.name) return &g;
    }
    return nullptr;
  }

  // ---- typed field constructors -----------------------------------------

  static Field f_bool(const char* name, bool* p) {
    return {name, [p](json::Writer& w) { w.boolean(*p); },
            [p](const json::Value& v) { *p = v.as_bool(); }};
  }
  static Field f_int(const char* name, int* p) {
    return {name, [p](json::Writer& w) { w.i64(*p); },
            [p](const json::Value& v) {
              const int64_t r = v.as_i64();
              if (r < INT32_MIN || r > INT32_MAX) {
                bad_value("out of int range");
              }
              *p = static_cast<int>(r);
            }};
  }
  static Field f_i64(const char* name, int64_t* p) {
    return {name, [p](json::Writer& w) { w.i64(*p); },
            [p](const json::Value& v) { *p = v.as_i64(); }};
  }
  static Field f_u64(const char* name, uint64_t* p) {
    return {name, [p](json::Writer& w) { w.u64(*p); },
            [p](const json::Value& v) { *p = v.as_u64(); }};
  }
  static Field f_size(const char* name, size_t* p) {
    return {name,
            [p](json::Writer& w) {
              if (*p == SIZE_MAX) {
                w.string("inf");
              } else {
                w.u64(*p);
              }
            },
            [p](const json::Value& v) {
              if (v.is_string() && v.as_string() == "inf") {
                *p = SIZE_MAX;
              } else {
                *p = static_cast<size_t>(v.as_u64());
              }
            }};
  }
  static Field f_double(const char* name, double* p) {
    return {name, [p](json::Writer& w) { w.number(*p); },
            [p](const json::Value& v) { *p = v.as_double(); }};
  }
  // Durations serialize in their native unit (microseconds).
  static Field f_duration(const char* name, Duration* p) {
    return {name, [p](json::Writer& w) { w.i64(*p); },
            [p](const json::Value& v) { *p = v.as_i64(); }};
  }

  void build(RunSpec& s) {
    ClusterParams& p = s.params;
    top_ = {
        {"system",
         [&p](json::Writer& w) { w.string(system_spec_name(p.system)); },
         [&p](const json::Value& v) {
           if (!parse_system(v.as_string(), &p.system)) {
             bad_value("unknown system name");
           }
         }},
        {"config", [&s](json::Writer& w) { w.string(s.config); },
         [&s](const json::Value& v) {
           const std::string& name = v.as_string();
           if (!name.empty() && find_config(name) == nullptr) {
             bad_value("unknown config name");
           }
           s.config = name;
         }},
        f_u64("seed", &p.seed),
    };
    groups_ = {
        {"cluster",
         {
             f_size("partitions", &p.partitions),
             f_size("ev_replicas", &p.ev_replicas),
             f_size("compute_nodes", &p.compute_nodes),
             f_size("clients", &p.clients),
             f_int("dags_per_client", &p.dags_per_client),
             f_size("cache_capacity", &p.cache_capacity),
         }},
        {"workload",
         {
             f_u64("num_keys", &p.workload.num_keys),
             f_double("zipf", &p.workload.zipf),
             f_int("dag_size", &p.workload.dag_size),
             f_int("reads_per_function", &p.workload.reads_per_function),
             f_size("value_size", &p.workload.value_size),
             f_bool("static_txns", &p.workload.static_txns),
             {"pattern",
              [&p](json::Writer& w) {
                w.string(workload::load_pattern_name(p.workload.pattern));
              },
              [&p](const json::Value& v) {
                if (!workload::parse_load_pattern(v.as_string(),
                                                  &p.workload.pattern)) {
                  bad_value(
                      "expected \"none\", \"bursty\", \"diurnal\" or "
                      "\"hotspot-shift\"");
                }
              }},
             f_duration("pattern_period_us", &p.workload.pattern_period),
             f_duration("think_time_us", &p.workload.think_time),
         }},
        {"faastcc",
         {
             f_bool("use_promises", &p.faastcc.use_promises),
             f_bool("use_interval", &p.faastcc.use_interval),
             f_bool("snapshot_isolation", &p.faastcc.snapshot_isolation),
             f_bool("chaos_skip_local_reads",
                    &p.faastcc.chaos_skip_local_reads),
         }},
        {"hydro",
         {
             f_bool("static_metadata_optimization",
                    &p.hydro.static_metadata_optimization),
             f_duration("dep_gc_window_us", &p.hydro.dep_gc_window),
             f_size("stored_dep_cap", &p.hydro.stored_dep_cap),
         }},
        {"tcc",
         {
             f_duration("gossip_period_us", &p.tcc.gossip_period),
             {"stabilization_topology",
              [&p](json::Writer& w) {
                w.string(storage::stab_topology_name(p.tcc.stab_topology));
              },
              [&p](const json::Value& v) {
                if (!storage::parse_stab_topology(v.as_string(),
                                                  &p.tcc.stab_topology)) {
                  bad_value("expected \"mesh\" or \"tree\"");
                }
              }},
             f_int("tree_fanout", &p.tcc.tree_fanout),
             f_bool("push_coalescing", &p.tcc.push_coalescing),
             f_duration("push_period_us", &p.tcc.push_period),
             f_duration("gc_window_us", &p.tcc.gc_window),
             f_duration("gc_period_us", &p.tcc.gc_period),
             f_duration("request_cpu_us", &p.tcc.request_cpu),
             f_duration("per_key_cpu_us", &p.tcc.per_key_cpu),
             f_duration("prepare_ttl_us", &p.tcc.prepare_ttl),
             f_size("resolved_cap", &p.tcc.resolved_cap),
             f_bool("chaos_ack_expired_commit",
                    &p.tcc.chaos_ack_expired_commit),
             f_bool("chaos_drop_install", &p.tcc.chaos_drop_install),
             f_bool("chaos_double_install", &p.tcc.chaos_double_install),
             f_bool("chaos_ignore_dep", &p.tcc.chaos_ignore_dep),
         }},
        {"ev",
         {
             f_duration("gossip_period_us", &p.ev.gossip_period),
             f_duration("cut_period_us", &p.ev.cut_period),
             f_duration("push_period_us", &p.ev.push_period),
             f_duration("request_cpu_us", &p.ev.request_cpu),
             f_duration("per_key_cpu_us", &p.ev.per_key_cpu),
         }},
        {"node",
         {
             f_int("executors", &p.node.executors),
             f_duration("function_service_time_us",
                        &p.node.function_service_time),
             f_double("context_cpu_us_per_kb", &p.node.context_cpu_us_per_kb),
             f_duration("dispatch_overhead_us", &p.node.dispatch_overhead),
             f_duration("join_gc_age_us", &p.node.join_gc_age),
             f_size("executed_dedup_cap", &p.node.executed_dedup_cap),
         }},
        {"scheduler",
         {
             f_duration("service_time_us", &p.scheduler.service_time),
             f_bool("round_robin", &p.scheduler.round_robin),
             f_size("start_dedup_cap", &p.scheduler.start_dedup_cap),
         }},
        {"net",
         {
             f_duration("base_latency_us", &p.net.base_latency),
             f_duration("jitter_us", &p.net.jitter),
             f_double("bandwidth_bytes_per_us", &p.net.bandwidth_bytes_per_us),
             f_duration("local_delivery_us", &p.net.local_delivery),
         }},
        {"faults",
         {
             f_double("loss_prob", &p.faults.loss_prob),
             f_double("dup_prob", &p.faults.dup_prob),
             f_double("delay_spike_prob", &p.faults.delay_spike_prob),
             f_duration("delay_spike_us", &p.faults.delay_spike),
             f_duration("rpc_timeout_us", &p.faults.rpc_timeout),
             f_duration("dag_timeout_us", &p.faults.dag_timeout),
             {"crashes",
              [&p](json::Writer& w) {
                w.begin_array();
                for (const net::CrashWindow& c : p.faults.crashes) {
                  w.begin_object();
                  w.key("addr");
                  w.u64(c.addr);
                  w.key("from_us");
                  w.i64(c.from);
                  w.key("until_us");
                  w.i64(c.until);
                  w.end_object();
                }
                w.end_array();
              },
              [&p](const json::Value& v) {
                if (!v.is_array()) bad_value("expected array");
                p.faults.crashes.clear();
                for (const json::Value& item : v.items) {
                  if (!item.is_object()) {
                    bad_value("expected array of objects");
                  }
                  net::CrashWindow c;
                  for (const auto& [k, field] : item.fields) {
                    if (k == "addr") {
                      c.addr = static_cast<net::Address>(field.as_u64());
                    } else if (k == "from_us") {
                      c.from = field.as_i64();
                    } else if (k == "until_us") {
                      c.until = field.as_i64();
                    } else {
                      bad_value("unknown crash-window key");
                    }
                  }
                  p.faults.crashes.push_back(c);
                }
              }},
         }},
        {"elastic",
         {
             f_size("add_partitions", &p.elastic.add_partitions),
             f_duration("at_us", &p.elastic.at),
             f_size("remove_partitions", &p.elastic.remove_partitions),
             f_duration("remove_at_us", &p.elastic.remove_at),
             f_size("slots_per_partition", &p.elastic.slots_per_partition),
         }},
        {"autoscale",
         {
             f_size("max_partitions", &p.autoscale.max_partitions),
             f_size("min_partitions", &p.autoscale.min_partitions),
             f_duration("check_period_us", &p.autoscale.check_period),
             f_double("high_p99_ms", &p.autoscale.high_p99_ms),
             f_double("low_p99_ms", &p.autoscale.low_p99_ms),
             f_size("breach_checks", &p.autoscale.breach_checks),
             f_duration("cooldown_us", &p.autoscale.cooldown),
             f_size("step", &p.autoscale.step),
         }},
        {"replication",
         {
             f_size("factor", &p.replication.factor),
             f_duration("lease_timeout_us", &p.replication.lease_timeout),
         }},
        {"faastcc_cache",
         {
             f_duration("lookup_cpu_us", &p.faastcc_cache.lookup_cpu),
             f_duration("retry_backoff_us", &p.faastcc_cache.retry_backoff),
             f_bool("chaos_prewarm_open", &p.faastcc_cache.chaos_prewarm_open),
             f_bool("chaos_ignore_interval",
                    &p.faastcc_cache.chaos_ignore_interval),
         }},
        {"hydro_cache",
         {
             f_duration("lookup_cpu_us", &p.hydro_cache.lookup_cpu),
             f_duration("retry_backoff_us", &p.hydro_cache.retry_backoff),
             f_int("max_rounds", &p.hydro_cache.max_rounds),
         }},
        {"plain_cache",
         {
             f_duration("lookup_cpu_us", &p.plain_cache.lookup_cpu),
         }},
        {"trace",
         {
             f_bool("enabled", &p.trace.enabled),
             f_size("ring_capacity", &p.trace.ring_capacity),
             f_u64("sample_every", &p.trace.sample_every),
         }},
        {"run",
         {
             f_bool("check_consistency", &p.check_consistency),
             f_bool("prewarm_caches", &p.prewarm_caches),
             f_duration("warmup_us", &p.warmup),
             f_duration("max_sim_time_us", &p.max_sim_time),
             f_int("client_max_retries", &p.client_max_retries),
             f_i64("clock_skew_us", &p.clock_skew_us),
             f_int("straggler_gossip_factor", &p.straggler_gossip_factor),
         }},
    };
  }

  std::vector<Field> top_;
  std::vector<Group> groups_;
};

}  // namespace

bool parse_system(std::string_view name, SystemKind* out) {
  if (name == "faastcc") {
    *out = SystemKind::kFaasTcc;
  } else if (name == "hydrocache") {
    *out = SystemKind::kHydroCache;
  } else if (name == "cloudburst") {
    *out = SystemKind::kCloudburst;
  } else {
    return false;
  }
  return true;
}

const char* system_spec_name(SystemKind s) {
  switch (s) {
    case SystemKind::kFaasTcc: return "faastcc";
    case SystemKind::kHydroCache: return "hydrocache";
    case SystemKind::kCloudburst: return "cloudburst";
  }
  return "?";
}

ClusterParams RunSpec::resolve() const {
  RunSpec out{params, ""};
  if (!config.empty()) {
    const NamedConfig* c = find_config(config);
    if (c == nullptr) throw SpecError("unknown config '" + config + "'");
    apply_spec_patch(out, json::parse(c->overlay));
  }
  // The bounds must bracket the starting count: a ceiling at or below it
  // builds no joiners, so the scaler could only shrink.
  const ClusterParams& p = out.params;
  if (p.autoscale.enabled() && p.autoscale.max_partitions <= p.partitions) {
    throw SpecError("spec.autoscale.max_partitions: " +
                    std::to_string(p.autoscale.max_partitions) +
                    " must exceed cluster.partitions (" +
                    std::to_string(p.partitions) + ")");
  }
  if (p.autoscale.enabled() && p.autoscale.min_partitions > p.partitions) {
    throw SpecError("spec.autoscale.min_partitions: " +
                    std::to_string(p.autoscale.min_partitions) +
                    " exceeds cluster.partitions (" +
                    std::to_string(p.partitions) + ")");
  }
  return out.params;
}

std::string to_json(const RunSpec& spec) {
  // SpecFields binds mutable pointers; encoding only reads through them.
  RunSpec& mutable_spec = const_cast<RunSpec&>(spec);
  json::Writer w;
  SpecFields(mutable_spec).encode(w);
  std::string out = w.take();
  out.push_back('\n');
  return out;
}

void apply_spec_patch(RunSpec& spec, const json::Value& doc) {
  SpecFields(spec).apply(doc);
}

json::Value spec_setting(std::string_view setting) {
  const size_t eq = setting.find('=');
  if (eq == std::string_view::npos) {
    throw SpecError("expected <group>.<key>=<value>, got '" +
                    std::string(setting) + "'");
  }
  const std::string_view path = setting.substr(0, eq);
  const std::string_view text = setting.substr(eq + 1);
  json::Value value;
  try {
    value = json::parse(text);
  } catch (const json::ParseError&) {
    value.type = json::Value::Type::kString;
    value.text = text;
  }
  const auto object = [](std::string_view key, json::Value v) {
    json::Value o;
    o.type = json::Value::Type::kObject;
    o.fields.emplace_back(std::string(key), std::move(v));
    return o;
  };
  const size_t dot = path.find('.');
  if (dot == std::string_view::npos) return object(path, std::move(value));
  return object(path.substr(0, dot),
                object(path.substr(dot + 1), std::move(value)));
}

RunSpec spec_from_json(const json::Value& doc) {
  RunSpec spec;
  apply_spec_patch(spec, doc);
  return spec;
}

RunSpec spec_from_text(std::string_view text) {
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const json::ParseError& e) {
    throw SpecError(std::string("spec: ") + e.what());
  }
  return spec_from_json(doc);
}

RunOutput run_one(const RunSpec& spec) {
  const ClusterParams params = spec.resolve();
  if (params.check_consistency && params.system != SystemKind::kFaasTcc) {
    throw SpecError(
        "check_consistency is only supported for system=faastcc");
  }
  Cluster cluster(params);
  RunOutput out;
  out.result = cluster.run();
  out.summary = summarize(out.result);
  out.messages_sent = cluster.network().messages_sent();
  if (check::ConsistencyOracle* oracle = cluster.oracle()) {
    out.checked = true;
    const auto violations = oracle->check();
    out.violations = violations.size();
    if (!violations.empty()) {
      out.violation_kind = check::violation_name(violations.front().kind);
      out.oracle_report = oracle->report(violations);
    }
    out.oracle_installs = oracle->installs_recorded();
    out.oracle_reads = oracle->reads_recorded();
    out.oracle_commits = oracle->commits_recorded();
  }
  if (params.trace.enabled) {
    std::ostringstream trace;
    cluster.tracer().export_chrome_trace(trace);
    out.trace_json = trace.str();
    out.trace_spans_recorded = cluster.tracer().spans_recorded();
    out.trace_spans_dropped = cluster.tracer().spans_dropped();
  }
  return out;
}

std::string run_output_to_json(const RunOutput& o) {
  json::Writer w(/*compact=*/true);
  w.begin_object();
  w.key("committed");
  w.u64(o.result.committed);
  w.key("aborted_attempts");
  w.u64(o.result.aborted_attempts);
  w.key("sim_events");
  w.u64(o.result.sim_events);
  w.key("messages");
  w.u64(o.messages_sent);
  w.key("duration_s");
  w.number(o.result.duration_s);
  w.key("throughput");
  w.number(o.result.throughput);

  for (const auto& [name, object] :
       {std::pair{"summary", SummaryField::Object::kSummary},
        std::pair{"net", SummaryField::Object::kNet}}) {
    w.key(name);
    w.begin_object();
    for (const SummaryField& f : kSummaryFields) {
      if (f.object != object) continue;
      w.key(f.key);
      // Counts are exact in a double, and %.17g prints them as integers.
      w.number(o.summary.*f.member);
    }
    w.end_object();
  }

  w.key("oracle");
  w.begin_object();
  w.key("checked");
  w.boolean(o.checked);
  w.key("violations");
  w.u64(o.violations);
  w.key("violation_kind");
  w.string(o.violation_kind);
  w.key("installs");
  w.u64(o.oracle_installs);
  w.key("reads");
  w.u64(o.oracle_reads);
  w.key("commits");
  w.u64(o.oracle_commits);
  w.key("report");
  w.string(o.oracle_report);
  w.end_object();

  w.end_object();
  return w.take();
}

void print_run_table(const RunOutput& o) {
  const auto text = [](double v) {
    return fmt(v, v == std::trunc(v) ? 0 : 4);
  };
  Table table({"layer", "metric", "value", "unit"});
  const json::Value record = json::parse(run_output_to_json(o));
  for (const auto& [key, value] : record.fields) {
    if (value.is_number()) {
      table.add_row({"run", key, text(value.as_double()), ""});
    }
  }
  std::vector<std::string_view> layers;
  for (const SummaryField& f : kSummaryFields) {
    if (std::find(layers.begin(), layers.end(), f.layer) == layers.end()) {
      layers.push_back(f.layer);
    }
  }
  for (const std::string_view layer : layers) {
    for (const SummaryField& f : kSummaryFields) {
      if (f.layer != layer) continue;
      table.add_row({f.layer, f.key, text(o.summary.*f.member), f.unit});
    }
  }
  table.print();
}

}  // namespace faastcc::harness
