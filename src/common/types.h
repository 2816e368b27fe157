// Basic identifier and time types shared by every FaaSTCC module.
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <new>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace faastcc {

// Simulated time, in microseconds since simulation start.
using SimTime = int64_t;
using Duration = int64_t;

constexpr Duration microseconds(int64_t us) { return us; }
constexpr Duration milliseconds(int64_t ms) { return ms * 1000; }
constexpr Duration seconds(int64_t s) { return s * 1000 * 1000; }

constexpr double to_millis(Duration d) { return static_cast<double>(d) / 1000.0; }
constexpr double to_seconds(Duration d) { return static_cast<double>(d) / 1e6; }

// Identifies a process in the simulated cluster (storage partition,
// compute node, scheduler, client, ...).  Dense, assigned by the cluster
// builder.
using NodeId = uint32_t;

// Identifies a storage partition (shard) within the storage layer.
using PartitionId = uint32_t;

// Keys are dense integers; the workload generator draws them from a Zipf
// distribution over [0, num_keys).  A dense key space keeps serialized
// metadata sizes exact (8 bytes/key), mirroring the paper's accounting.
using Key = uint64_t;

// Values are opaque immutable byte strings (the paper uses 8-byte
// payloads), shared by reference count: assigning or copying a Value bumps
// a refcount instead of deep-copying the bytes, so a payload travelling
// mv_store -> partition -> cache -> client is allocated once.  The
// string-like read surface (size/empty/view/iteration/comparison) is what
// the codec and the byte-accounting paths consume, so Fig. 5/7/8 wire and
// cache byte counts are unaffected.
//
// A Value is one pointer to a single heap block {refs, size, bytes...}
// allocated with ::operator new, so a cached or stored version costs one
// word plus one block.  An empty value holds no allocation at all.  The
// count is a plain integer, not an atomic: the simulation runs on one
// thread, and tcc_sweep runs cells in forked processes, not threads.
class Value {
 public:
  Value() = default;
  Value(std::string_view s)  // NOLINT(google-explicit-constructor)
      : rep_(allocate(s.size())) {
    if (rep_ != nullptr) std::memcpy(bytes(), s.data(), s.size());
  }
  Value(const std::string& s)  // NOLINT(google-explicit-constructor)
      : Value(std::string_view(s)) {}
  Value(const char* s)  // NOLINT(google-explicit-constructor)
      : Value(std::string_view(s)) {}
  Value(size_t count, char fill) : rep_(allocate(count)) {
    if (rep_ != nullptr) std::memset(bytes(), fill, count);
  }

  Value(const Value& o) noexcept : rep_(o.rep_) {
    if (rep_ != nullptr) ++rep_->refs;
  }
  Value(Value&& o) noexcept : rep_(std::exchange(o.rep_, nullptr)) {}
  // Both assignments go through a temporary, so self-assignment and
  // self-move leave the value intact.
  Value& operator=(const Value& o) noexcept {
    Value(o).swap(*this);
    return *this;
  }
  Value& operator=(Value&& o) noexcept {
    Value(std::move(o)).swap(*this);
    return *this;
  }
  // GCC 12 reports one holder's decrement after another's inlined delete
  // as a use after free: it cannot see that the count stayed above zero.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuse-after-free"
  ~Value() {
    if (rep_ != nullptr && --rep_->refs == 0) ::operator delete(rep_);
  }
#pragma GCC diagnostic pop
  void swap(Value& o) noexcept { std::swap(rep_, o.rep_); }

  size_t size() const { return rep_ != nullptr ? rep_->size : 0; }
  bool empty() const { return rep_ == nullptr; }
  // Whether this is the block's only holder (false for an empty value).
  bool unique() const { return rep_ != nullptr && rep_->refs == 1; }

  std::string_view view() const {
    return rep_ != nullptr ? std::string_view(bytes(), rep_->size)
                           : std::string_view();
  }
  operator std::string_view() const { return view(); }  // NOLINT
  const char* data() const { return view().data(); }

  auto begin() const { return view().begin(); }
  auto end() const { return view().end(); }
  char operator[](size_t i) const { return view()[i]; }

  friend bool operator==(const Value& a, const Value& b) {
    return a.rep_ == b.rep_ || a.view() == b.view();
  }
  friend bool operator==(const Value& a, std::string_view b) {
    return a.view() == b;
  }
  // Exact-match overload so `v == "literal"` needs no user-defined
  // conversion on either side (which would be ambiguous with the implicit
  // string_view conversion above).
  friend bool operator==(const Value& a, const char* b) {
    return a.view() == std::string_view(b);
  }
  friend bool operator==(const Value& a, const std::string& b) {
    return a.view() == std::string_view(b);
  }
  friend std::ostream& operator<<(std::ostream& os, const Value& v) {
    return os << v.view();
  }

 private:
  // The block header; the bytes follow it directly.
  struct Rep {
    uint32_t refs;
    uint32_t size;
  };

  // One block for `n` bytes with a count of one; nullptr for n == 0.
  static Rep* allocate(size_t n) {
    if (n == 0) return nullptr;
    if (n > std::numeric_limits<uint32_t>::max()) {
      throw std::length_error("Value larger than 4 GiB");
    }
    return ::new (::operator new(sizeof(Rep) + n))
        Rep{1, static_cast<uint32_t>(n)};
  }
  char* bytes() const { return reinterpret_cast<char*>(rep_ + 1); }

  Rep* rep_ = nullptr;
};
static_assert(sizeof(Value) == sizeof(void*));

// Unique id of one DAG execution (== one transaction attempt).
using TxnId = uint64_t;

constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

}  // namespace faastcc
