#include "harness/sweep.h"

#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>

namespace faastcc::harness {

namespace {

// ---- plan expansion ------------------------------------------------------

struct AxisValue {
  std::string label;
  json::Value patch;  // RunSpec patch (may be an empty object)
};

struct Axis {
  std::string name;
  std::vector<AxisValue> values;
  bool seeds = false;  // a replicate axis: not part of the cell key
};

json::Value make_patch_object(
    std::vector<std::pair<std::string, json::Value>> fields) {
  json::Value v;
  v.type = json::Value::Type::kObject;
  v.fields = std::move(fields);
  return v;
}

json::Value make_string_value(std::string s) {
  json::Value v;
  v.type = json::Value::Type::kString;
  v.text = std::move(s);
  return v;
}

json::Value make_number_value(uint64_t n) {
  json::Value v;
  v.type = json::Value::Type::kNumber;
  v.text = std::to_string(n);
  return v;
}

Axis parse_axis(const json::Value& doc) {
  if (!doc.is_object()) throw SpecError("plan.axes: expected objects");
  Axis axis;
  if (const json::Value* name = doc.find("name")) {
    axis.name = name->as_string();
  }
  if (const json::Value* seeds = doc.find("seeds")) {
    // Sugar: {"seeds": {"base": B, "count": N}} -> s<B>..s<B+N-1>.
    const json::Value* base = seeds->find("base");
    const json::Value* count = seeds->find("count");
    if (base == nullptr || count == nullptr) {
      throw SpecError("plan axis 'seeds' needs base and count");
    }
    const uint64_t b = base->as_u64();
    const uint64_t n = count->as_u64();
    for (uint64_t i = 0; i < n; ++i) {
      AxisValue v;
      v.label = "s" + std::to_string(b + i);
      v.patch = make_patch_object({{"seed", make_number_value(b + i)}});
      axis.values.push_back(std::move(v));
    }
    axis.seeds = true;
    return axis;
  }
  if (const json::Value* configs = doc.find("configs")) {
    // Sugar: {"configs": ["clean", ...]} -> one value per named config.
    if (!configs->is_array()) {
      throw SpecError("plan axis 'configs' must be an array");
    }
    for (const json::Value& c : configs->items) {
      AxisValue v;
      v.label = c.as_string();
      v.patch = make_patch_object({{"config", make_string_value(v.label)}});
      axis.values.push_back(std::move(v));
    }
    return axis;
  }
  const json::Value* values = doc.find("values");
  if (values == nullptr || !values->is_array() || values->items.empty()) {
    throw SpecError("plan axis needs a non-empty 'values' array "
                    "(or 'seeds'/'configs' sugar)");
  }
  for (const json::Value& item : values->items) {
    if (!item.is_object()) {
      throw SpecError("plan axis values must be objects");
    }
    AxisValue v;
    if (const json::Value* label = item.find("label")) {
      v.label = label->as_string();
    } else {
      throw SpecError("plan axis value needs a 'label'");
    }
    if (const json::Value* set = item.find("set")) {
      v.patch = *set;
    } else {
      v.patch = make_patch_object({});
    }
    axis.values.push_back(std::move(v));
  }
  return axis;
}

// ---- fork-per-run execution ---------------------------------------------

struct Worker {
  pid_t pid = -1;
  int fd = -1;
  size_t index = 0;
  std::string buffer;
};

[[noreturn]] void child_main(const SweepItem& item, int out_fd) {
  std::string line;
  int exit_code = 0;
  try {
    const RunOutput out = run_one(item.spec);
    line = run_output_to_json(out);
  } catch (const std::exception& e) {
    line = std::string("ERROR ") + e.what();
    exit_code = 3;
  }
  line.push_back('\n');
  size_t written = 0;
  while (written < line.size()) {
    const ssize_t n =
        write(out_fd, line.data() + written, line.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      _exit(4);
    }
    written += static_cast<size_t>(n);
  }
  _exit(exit_code);
}

void parse_record_fields(RunRecord& rec) {
  const json::Value doc = json::parse(rec.json);
  rec.committed = doc.find("committed")->as_u64();
  rec.sim_events = doc.find("sim_events")->as_u64();
  rec.messages = doc.find("messages")->as_u64();
  const json::Value* oracle = doc.find("oracle");
  rec.checked = oracle->find("checked")->as_bool();
  rec.violations = static_cast<size_t>(oracle->find("violations")->as_u64());
  rec.violation_kind = oracle->find("violation_kind")->as_string();
  rec.oracle_report = oracle->find("report")->as_string();
}

void run_serial(const SweepPlan& plan, const SweepOptions& opts,
                SweepResult& result) {
  for (size_t i = 0; i < plan.items.size(); ++i) {
    const SweepItem& item = plan.items[i];
    const RunOutput out = run_one(item.spec);
    RunRecord& rec = result.records[i];
    rec.json = run_output_to_json(out);
    rec.ran = true;
    parse_record_fields(rec);
    if (opts.verbose) {
      std::fprintf(stderr, "[sweep] %-40s committed=%-6llu %s\n",
                   item.id.c_str(),
                   static_cast<unsigned long long>(rec.committed),
                   rec.violations == 0 ? "ok" : "VIOLATION");
    }
    if (opts.stop_on_violation && rec.violations > 0) return;
  }
}

void run_parallel(const SweepPlan& plan, const SweepOptions& opts,
                  SweepResult& result) {
  const size_t total = plan.items.size();
  size_t next = 0;
  size_t active = 0;
  std::vector<Worker> workers;

  auto spawn_next = [&]() {
    int fds[2];
    if (pipe(fds) != 0) {
      throw std::runtime_error(std::string("sweep: pipe failed: ") +
                               std::strerror(errno));
    }
    // Flush stdio so the child does not replay buffered parent output.
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      throw std::runtime_error(std::string("sweep: fork failed: ") +
                               std::strerror(errno));
    }
    if (pid == 0) {
      close(fds[0]);
      child_main(plan.items[next], fds[1]);
    }
    close(fds[1]);
    Worker w;
    w.pid = pid;
    w.fd = fds[0];
    w.index = next;
    workers.push_back(std::move(w));
    ++next;
    ++active;
  };

  auto finish_worker = [&](Worker& w) {
    close(w.fd);
    w.fd = -1;
    int status = 0;
    while (waitpid(w.pid, &status, 0) < 0) {
      if (errno != EINTR) {
        throw std::runtime_error("sweep: waitpid failed");
      }
    }
    --active;
    const SweepItem& item = plan.items[w.index];
    if (w.buffer.rfind("ERROR ", 0) == 0) {
      throw SpecError("sweep run '" + item.id +
                      "' failed: " + w.buffer.substr(6));
    }
    const bool exited_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!exited_ok || w.buffer.empty() || w.buffer.back() != '\n') {
      throw std::runtime_error("sweep worker for '" + item.id +
                               "' died without delivering a record");
    }
    RunRecord& rec = result.records[w.index];
    rec.json = w.buffer.substr(0, w.buffer.size() - 1);
    rec.ran = true;
    parse_record_fields(rec);
    if (opts.verbose) {
      std::fprintf(stderr, "[sweep] %-40s committed=%-6llu %s\n",
                   item.id.c_str(),
                   static_cast<unsigned long long>(rec.committed),
                   rec.violations == 0 ? "ok" : "VIOLATION");
    }
  };

  while (next < total || active > 0) {
    while (next < total && active < static_cast<size_t>(opts.jobs)) {
      spawn_next();
    }
    std::vector<pollfd> fds;
    for (const Worker& w : workers) {
      if (w.fd >= 0) fds.push_back(pollfd{w.fd, POLLIN, 0});
    }
    if (fds.empty()) break;
    const int r = poll(fds.data(), fds.size(), -1);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("sweep: poll failed: ") +
                               std::strerror(errno));
    }
    for (const pollfd& p : fds) {
      if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Worker* w = nullptr;
      for (Worker& cand : workers) {
        if (cand.fd == p.fd) {
          w = &cand;
          break;
        }
      }
      if (w == nullptr) continue;
      char buf[65536];
      const ssize_t n = read(p.fd, buf, sizeof(buf));
      if (n > 0) {
        w->buffer.append(buf, static_cast<size_t>(n));
      } else if (n == 0) {
        finish_worker(*w);
      } else if (errno != EINTR && errno != EAGAIN) {
        throw std::runtime_error(std::string("sweep: read failed: ") +
                                 std::strerror(errno));
      }
    }
  }
}

}  // namespace

SweepPlan SweepPlan::from_json(const json::Value& doc) {
  if (!doc.is_object()) throw SpecError("plan: expected a JSON object");
  if (const json::Value* schema = doc.find("schema")) {
    if (schema->as_string() != "faastcc.sweep_plan.v1") {
      throw SpecError("plan: unknown schema '" + schema->as_string() + "'");
    }
  }
  PlanInfo info;
  if (const json::Value* name = doc.find("name")) info.name = name->as_string();
  if (const json::Value* title = doc.find("title")) {
    info.title = title->as_string();
  }
  if (const json::Value* paper = doc.find("paper")) info.paper = *paper;
  RunSpec base;
  if (const json::Value* b = doc.find("base")) {
    apply_spec_patch(base, *b);
  }
  std::vector<Axis> axes;
  if (const json::Value* a = doc.find("axes")) {
    if (!a->is_array()) throw SpecError("plan.axes: expected an array");
    for (const json::Value& axis_doc : a->items) {
      axes.push_back(parse_axis(axis_doc));
      if (!axes.back().seeds) info.axes.push_back(axes.back().name);
    }
  }
  for (const auto& [key, value] : doc.fields) {
    (void)value;
    if (key != "schema" && key != "name" && key != "title" && key != "base" &&
        key != "axes" && key != "paper") {
      throw SpecError("plan: unknown key '" + key + "'");
    }
  }

  SweepPlan plan;
  const std::string name = info.name;
  plan.plans.push_back(std::move(info));
  // A run's id and cell are its axis labels joined by '/' (the cell skips
  // seed labels) behind the plan name; an empty join is the plan name, or
  // "run" for an unnamed plan.
  const auto label = [&name](const std::string& joined) {
    if (joined.empty()) return name.empty() ? std::string("run") : name;
    return name.empty() ? joined : name + "/" + joined;
  };
  // Cartesian product, first axis outermost (no axes: one base run).
  std::vector<size_t> cursor(axes.size(), 0);
  for (;;) {
    SweepItem item;
    item.spec = base;
    item.plan = name;
    std::string id;
    std::string cell;
    for (size_t a = 0; a < axes.size(); ++a) {
      const AxisValue& v = axes[a].values[cursor[a]];
      apply_spec_patch(item.spec, v.patch);
      if (!id.empty()) id.push_back('/');
      id += v.label;
      if (axes[a].seeds) continue;
      if (!cell.empty()) cell.push_back('/');
      cell += v.label;
      item.axes.emplace_back(axes[a].name, v.label);
    }
    item.id = label(id);
    item.cell = label(cell);
    plan.items.push_back(std::move(item));
    // Odometer increment (last axis fastest).
    size_t a = axes.size();
    for (;;) {
      if (a == 0) return plan;
      --a;
      if (++cursor[a] < axes[a].values.size()) break;
      cursor[a] = 0;
    }
  }
}

SweepPlan SweepPlan::from_text(std::string_view text) {
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const json::ParseError& e) {
    throw SpecError(std::string("plan: ") + e.what());
  }
  return from_json(doc);
}

void SweepPlan::append(SweepPlan other) {
  for (const PlanInfo& mine : plans) {
    for (const PlanInfo& theirs : other.plans) {
      if (mine.name.empty() || theirs.name.empty()) {
        throw SpecError("plan: plans merged into one sweep need a 'name'");
      }
      if (mine.name == theirs.name) {
        throw SpecError("plan: two plans are named '" + mine.name + "'");
      }
    }
  }
  for (PlanInfo& info : other.plans) plans.push_back(std::move(info));
  for (SweepItem& item : other.items) items.push_back(std::move(item));
}

SweepResult run_sweep(const SweepPlan& plan, const SweepOptions& opts) {
  SweepResult result;
  result.records.resize(plan.items.size());
  for (size_t i = 0; i < plan.items.size(); ++i) {
    result.records[i].id = plan.items[i].id;
  }
  const auto t0 = std::chrono::steady_clock::now();
  if (opts.jobs <= 1) {
    run_serial(plan, opts, result);
  } else {
    run_parallel(plan, opts, result);
  }
  const auto t1 = std::chrono::steady_clock::now();
  result.wall_seconds = std::chrono::duration<double>(t1 - t0).count();

  for (size_t i = 0; i < result.records.size(); ++i) {
    const RunRecord& rec = result.records[i];
    if (!rec.ran) continue;
    ++result.runs;
    result.total_committed += rec.committed;
    result.total_sim_events += rec.sim_events;
    result.total_messages += rec.messages;
    if (rec.violations > 0) {
      ++result.runs_with_violations;
      if (result.first_violation == SIZE_MAX) result.first_violation = i;
    }
  }
  return result;
}

std::string merge_to_json(const SweepPlan& plan, const SweepResult& result) {
  // Per-cell aggregates in order of first appearance.  Checksums are
  // summed; `mean` averages the run record's throughput and every field of
  // its summary and net objects, so a new summary field needs no code here.
  struct Cell {
    const SweepItem* first = nullptr;
    size_t runs = 0;
    size_t checked = 0;
    size_t violations = 0;
    uint64_t committed = 0;
    uint64_t sim_events = 0;
    uint64_t messages = 0;
    std::vector<std::pair<std::string, double>> sums;
  };
  std::vector<Cell> cells;
  std::map<std::string, size_t> cell_index;

  json::Writer w;
  w.begin_object();
  w.key("schema");
  w.string("faastcc.sweep.v2");

  w.key("plans");
  w.begin_array();
  for (const PlanInfo& info : plan.plans) {
    w.begin_object();
    w.key("name");
    w.string(info.name);
    w.key("title");
    w.string(info.title);
    w.key("axes");
    w.begin_array();
    for (const std::string& axis : info.axes) w.string(axis);
    w.end_array();
    if (!info.paper.is_null()) {
      w.key("paper");
      w.raw(json::to_text(info.paper, /*compact=*/true));
    }
    w.end_object();
  }
  w.end_array();

  w.key("runs");
  w.begin_array();
  for (size_t i = 0; i < plan.items.size(); ++i) {
    const SweepItem& item = plan.items[i];
    const RunRecord& rec = result.records[i];
    if (!rec.ran) continue;
    const ClusterParams p = item.spec.resolve();
    w.begin_object();
    w.key("id");
    w.string(rec.id);
    w.key("cell");
    w.string(item.cell);
    w.key("system");
    w.string(system_spec_name(p.system));
    w.key("config");
    w.string(item.spec.config.empty() ? "-" : item.spec.config);
    w.key("partitions");
    w.u64(p.partitions);
    w.key("compute_nodes");
    w.u64(p.compute_nodes);
    w.key("clients");
    w.u64(p.clients);
    w.key("dags_per_client");
    w.i64(p.dags_per_client);
    w.key("dag_size");
    w.i64(p.workload.dag_size);
    w.key("zipf");
    w.number(p.workload.zipf);
    w.key("seed");
    w.u64(p.seed);
    w.key("result");
    w.raw(rec.json);
    w.end_object();

    const auto [it, inserted] = cell_index.emplace(item.cell, cells.size());
    if (inserted) {
      cells.emplace_back();
      cells.back().first = &item;
    }
    Cell& cell = cells[it->second];
    const json::Value doc = json::parse(rec.json);
    std::vector<std::pair<std::string, double>> values{
        {"throughput", doc.find("throughput")->as_double()}};
    for (const char* group : {"summary", "net"}) {
      for (const auto& [name, value] : doc.find(group)->fields) {
        values.emplace_back(name, value.as_double());
      }
    }
    if (cell.sums.empty()) {
      for (const auto& [name, value] : values) cell.sums.emplace_back(name, 0);
    }
    for (size_t f = 0; f < values.size(); ++f) {
      cell.sums[f].second += values[f].second;
    }
    ++cell.runs;
    cell.checked += rec.checked ? 1 : 0;
    cell.violations += rec.violations;
    cell.committed += rec.committed;
    cell.sim_events += rec.sim_events;
    cell.messages += rec.messages;
  }
  w.end_array();

  w.key("cells");
  w.begin_array();
  for (const Cell& cell : cells) {
    const SweepItem& item = *cell.first;
    w.begin_object();
    w.key("cell");
    w.string(item.cell);
    w.key("plan");
    w.string(item.plan);
    w.key("axes");
    w.begin_object();
    for (const auto& [axis, label] : item.axes) {
      w.key(axis);
      w.string(label);
    }
    w.end_object();
    w.key("runs");
    w.u64(cell.runs);
    w.key("checked");
    w.u64(cell.checked);
    w.key("violations");
    w.u64(cell.violations);
    w.key("committed");
    w.u64(cell.committed);
    w.key("sim_events");
    w.u64(cell.sim_events);
    w.key("messages");
    w.u64(cell.messages);
    w.key("mean");
    w.begin_object();
    for (const auto& [name, sum] : cell.sums) {
      w.key(name);
      w.number(sum / static_cast<double>(cell.runs));
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();

  w.key("totals");
  w.begin_object();
  w.key("runs");
  w.u64(result.runs);
  w.key("committed");
  w.u64(result.total_committed);
  w.key("sim_events");
  w.u64(result.total_sim_events);
  w.key("messages");
  w.u64(result.total_messages);
  w.key("runs_with_violations");
  w.u64(result.runs_with_violations);
  w.end_object();

  w.end_object();
  std::string out = w.take();
  out.push_back('\n');
  return out;
}

}  // namespace faastcc::harness
