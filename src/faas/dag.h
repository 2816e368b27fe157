// DAG model for function compositions (paper §3.1).
//
// A composition has one root, one sink, and arbitrary fan-out/fan-in in
// between; the whole composition executes as one transaction.  Functions
// are referenced by name in a registry and receive opaque argument bytes.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/serialize.h"
#include "common/types.h"

namespace faastcc::faas {

struct FunctionSpec {
  std::string name;                // registry key
  Buffer args;                     // opaque, interpreted by the body
  std::vector<uint32_t> children;  // indices into DagSpec::functions

  static constexpr auto kFields = std::tuple{
      &FunctionSpec::name, &FunctionSpec::args, &FunctionSpec::children};
};

struct DagSpec {
  std::vector<FunctionSpec> functions;
  bool is_static = false;
  // Declared key sets, meaningful for static transactions only.
  std::vector<Key> declared_read_set;
  std::vector<Key> declared_write_set;

  // Index of the unique root (no parents).  Asserts validity.
  uint32_t root() const;
  // Number of parents of each function.
  std::vector<uint32_t> in_degrees() const;
  // True iff there is exactly one root, exactly one sink, all child
  // indices are in range and the graph is acyclic.
  bool valid() const;

  // Convenience builder: a chain f0 -> f1 -> ... -> f{n-1}.
  static DagSpec chain(std::vector<FunctionSpec> functions);

  // Graphs with several sinks are automatically extended with a no-op
  // sync function that aggregates them (paper §3.1), so the composition
  // has the single commit point the runtime requires.  Returns true if
  // the spec was modified.  The sync body is registered as
  // FunctionRegistry::kSyncFunction by every registry.
  bool normalize_sinks();

  static constexpr auto kFields =
      std::tuple{&DagSpec::functions, &DagSpec::is_static,
                 &DagSpec::declared_read_set, &DagSpec::declared_write_set};
};

// A DagSpec held as its wire bytes: a shared owner plus a span, like
// Payload.  Messages carry the spec this way, so forwarding a trigger's
// spec down the composition is a refcount bump, and a node parses only
// what it uses, on demand: its own function's entry, its parent count and,
// for a static transaction, the declared sets.  The bytes are exactly the
// DagSpec encoding: encode splices them in with one put_span, and decode
// walks them with the bounds checks of the generic DagSpec decoder,
// aliasing the message buffer when the reader shares its owner.
class DagView {
 public:
  // The child indices of one function, read in place.
  class Children {
   public:
    Children() = default;
    Children(const uint8_t* data, uint32_t size) : data_(data), size_(size) {}

    uint32_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    uint32_t operator[](uint32_t i) const {
      uint32_t c;
      std::memcpy(&c, data_ + size_t{i} * sizeof(c), sizeof(c));
      return c;
    }

    struct iterator {
      const Children* list;
      uint32_t i;
      uint32_t operator*() const { return (*list)[i]; }
      iterator& operator++() {
        ++i;
        return *this;
      }
      bool operator==(const iterator&) const = default;
    };
    iterator begin() const { return {this, 0}; }
    iterator end() const { return {this, size_}; }

   private:
    const uint8_t* data_ = nullptr;
    uint32_t size_ = 0;
  };

  // One function's entry.  `name` and `children` point into the view's
  // bytes and are valid while any copy of the view lives; `args` shares
  // their owner.
  struct Function {
    std::string_view name;
    Payload args;
    Children children;
  };

  // The spec with no functions, as a default DagSpec encodes (no
  // allocation).
  DagView();
  // Encodes `spec`.  Implicit, so a message field assigned a DagSpec
  // keeps compiling and puts the same bytes on the wire.
  DagView(const DagSpec& spec);  // NOLINT(google-explicit-constructor)

  uint32_t num_functions() const;
  // Entry `i`; throws std::out_of_range past the last function.
  Function function(uint32_t i) const;
  // Number of functions that list `i` as a child (DagSpec::in_degrees()[i]);
  // throws std::out_of_range past the last function.
  uint32_t parents_of(uint32_t i) const;
  bool is_static() const;
  std::vector<Key> declared_read_set() const;
  std::vector<Key> declared_write_set() const;
  // Full parse.
  DagSpec spec() const;

  // The DagSpec encoding the view holds.
  const Payload& bytes() const { return bytes_; }

  template <typename W>
  void encode(W& w) const {
    w.put_span(bytes_.data(), bytes_.size());
  }
  static DagView decode(BufReader& r);

 private:
  explicit DagView(Payload bytes) : bytes_(std::move(bytes)) {}
  // A reader over the bytes (already validated), without the owner.
  BufReader reader() const { return BufReader(bytes_.data(), bytes_.size()); }
  // A reader positioned just past the function entries, at is_static.
  BufReader after_functions() const;

  Payload bytes_;
};

}  // namespace faastcc::faas
