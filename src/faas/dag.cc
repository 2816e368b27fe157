#include "faas/dag.h"

#include <cassert>
#include <stdexcept>

namespace faastcc::faas {

std::vector<uint32_t> DagSpec::in_degrees() const {
  std::vector<uint32_t> deg(functions.size(), 0);
  for (const auto& f : functions) {
    for (uint32_t c : f.children) {
      if (c < deg.size()) ++deg[c];
    }
  }
  return deg;
}

uint32_t DagSpec::root() const {
  const auto deg = in_degrees();
  for (uint32_t i = 0; i < deg.size(); ++i) {
    if (deg[i] == 0) return i;
  }
  assert(false && "DAG has no root");
  return 0;
}

bool DagSpec::valid() const {
  if (functions.empty()) return false;
  size_t roots = 0;
  size_t sinks = 0;
  for (const auto& f : functions) {
    if (f.children.empty()) ++sinks;
    for (uint32_t c : f.children) {
      if (c >= functions.size()) return false;
    }
  }
  const auto deg = in_degrees();
  for (uint32_t d : deg) {
    if (d == 0) ++roots;
  }
  if (roots != 1 || sinks != 1) return false;
  // Acyclicity via Kahn's algorithm.
  std::vector<uint32_t> remaining = deg;
  std::vector<uint32_t> queue;
  for (uint32_t i = 0; i < remaining.size(); ++i) {
    if (remaining[i] == 0) queue.push_back(i);
  }
  size_t seen = 0;
  while (!queue.empty()) {
    const uint32_t u = queue.back();
    queue.pop_back();
    ++seen;
    for (uint32_t c : functions[u].children) {
      if (--remaining[c] == 0) queue.push_back(c);
    }
  }
  return seen == functions.size();
}

bool DagSpec::normalize_sinks() {
  std::vector<uint32_t> sinks;
  for (uint32_t i = 0; i < functions.size(); ++i) {
    if (functions[i].children.empty()) sinks.push_back(i);
  }
  if (sinks.size() <= 1) return false;
  FunctionSpec sync;
  sync.name = "__sync";
  const auto sync_index = static_cast<uint32_t>(functions.size());
  for (uint32_t s : sinks) functions[s].children.push_back(sync_index);
  functions.push_back(std::move(sync));
  return true;
}

DagSpec DagSpec::chain(std::vector<FunctionSpec> fns) {
  DagSpec d;
  d.functions = std::move(fns);
  for (uint32_t i = 0; i + 1 < d.functions.size(); ++i) {
    d.functions[i].children = {i + 1};
  }
  if (!d.functions.empty()) d.functions.back().children.clear();
  return d;
}

namespace {

// One FunctionSpec entry read in place, through the checks the generic
// FunctionSpec decoder applies: two length-prefixed blobs, then a counted
// u32 vector.
struct Entry {
  std::string_view name;
  std::string_view args;
  DagView::Children children;
};

Entry read_entry(BufReader& r) {
  Entry e;
  e.name = r.get_bytes_view();
  e.args = r.get_bytes_view();
  const uint32_t n = r.get_count(Wire<uint32_t>::kMinSize);
  e.children = DagView::Children(r.get_span(size_t{n} * sizeof(uint32_t)), n);
  return e;
}

void skip_entries(BufReader& r, uint32_t n) {
  for (uint32_t i = 0; i < n; ++i) read_entry(r);
}

// The encoding of DagSpec{}: no functions, not static, no declared keys.
constexpr uint8_t kEmptySpec[4 + 1 + 4 + 4] = {};

}  // namespace

DagView::DagView() : bytes_(nullptr, kEmptySpec, sizeof(kEmptySpec)) {}

DagView::DagView(const DagSpec& spec) : bytes_(encode_message(spec)) {}

DagView DagView::decode(BufReader& r) {
  const uint8_t* begin = r.cursor();
  skip_entries(r, r.get_count(Wire<FunctionSpec>::kMinSize));
  r.get_bool();
  for (int set = 0; set < 2; ++set) {  // declared read and write sets
    const uint32_t n = r.get_count(Wire<Key>::kMinSize);
    r.get_span(size_t{n} * sizeof(Key));
  }
  const auto size = static_cast<size_t>(r.cursor() - begin);
  if (const auto& owner = r.owner()) return DagView(Payload(owner, begin, size));
  // Built in place: GCC 12 misreads a moved-from Buffer as a non-heap free.
  auto copy = std::make_shared<const Buffer>(begin, begin + size);
  return DagView(Payload(copy, copy->data(), size));
}

uint32_t DagView::num_functions() const { return reader().get_u32(); }

DagView::Function DagView::function(uint32_t i) const {
  BufReader r = reader();
  const uint32_t n = r.get_u32();
  if (i >= n) throw std::out_of_range("DagView::function");
  skip_entries(r, i);
  const Entry e = read_entry(r);
  Function f{e.name, Payload(), e.children};
  if (!e.args.empty()) {
    f.args = Payload(bytes_.owner(),
                     reinterpret_cast<const uint8_t*>(e.args.data()),
                     e.args.size());
  }
  return f;
}

uint32_t DagView::parents_of(uint32_t i) const {
  BufReader r = reader();
  const uint32_t n = r.get_u32();
  if (i >= n) throw std::out_of_range("DagView::parents_of");
  uint32_t parents = 0;
  for (uint32_t f = 0; f < n; ++f) {
    for (uint32_t c : read_entry(r).children) parents += c == i ? 1 : 0;
  }
  return parents;
}

BufReader DagView::after_functions() const {
  BufReader r = reader();
  skip_entries(r, r.get_u32());
  return r;
}

bool DagView::is_static() const { return after_functions().get_bool(); }

std::vector<Key> DagView::declared_read_set() const {
  BufReader r = after_functions();
  r.get_bool();
  return decode_from<std::vector<Key>>(r);
}

std::vector<Key> DagView::declared_write_set() const {
  BufReader r = after_functions();
  r.get_bool();
  r.get_span(size_t{r.get_u32()} * sizeof(Key));
  return decode_from<std::vector<Key>>(r);
}

DagSpec DagView::spec() const { return decode_message<DagSpec>(bytes_); }

}  // namespace faastcc::faas
