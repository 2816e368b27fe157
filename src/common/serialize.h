// Minimal binary codec used for every simulated network message.
//
// Fixed-width little-endian encoding keeps message sizes exact and easy to
// reason about: the metadata-size experiments (Fig. 5 and Fig. 7 of the
// paper) report the byte counts produced by this codec.  It plays the role
// protocol buffers play in the authors' prototype, and like a protobuf
// schema each message is described once: a struct lists its wire fields,
// in wire order, as member pointers,
//
//   struct GossipMsg {
//     PartitionId partition = 0;
//     Timestamp safe_time;
//     static constexpr auto kFields =
//         std::tuple{&GossipMsg::partition, &GossipMsg::safe_time};
//   };
//
// and the Wire<T> traits below generate encode, decode and the exact size
// from that one list.  Adding a field is one member plus one entry in
// kFields (append it to keep old bytes a prefix of the new).  Field types
// with traits: u8, u32, u64, i64, bool, Timestamp, length-prefixed blobs
// (std::string, Value, Buffer, Payload), std::vector<T> (vector<bool> as
// one byte per element), std::map<K, V>, any described struct, and
// trailing_nonzero(&T::field) for a trailing optional scalar.
//
// A type whose layout is not a flat field list keeps a hand codec —
// `template <typename W> void encode(W&) const` plus
// `static T decode(BufReader&)` — and the traits delegate to it:
//   - TccReadResp: each entry's layout depends on its status byte;
//   - TccReadReq: two parallel vectors interleaved per key;
//   - FaasTccContext and HydroContext: a leading version tag selects the
//     layout;
//   - DepMap and HydroSession: records stream through writers and decode
//     as views aliasing the message buffer (DepMap decode checks that the
//     keys ascend);
//   - DepList: its records are copied in and out as one span;
//   - RoutingTable: decode validates slot owners, and the replica block is
//     a trailing optional section.
// Hand codecs are generic over the writer, so the same body drives both
// the real BufWriter and the allocation-free CountingWriter (exact wire
// sizes without encoding, and exact reserve() sizes before encoding).
#pragma once

#include <concepts>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/hlc.h"
#include "common/types.h"

namespace faastcc {

using Buffer = std::vector<uint8_t>;

class BufferPool;

class BufWriter {
 public:
  BufWriter() = default;
  // Writes into a recycled buffer (cleared, capacity retained) so repeated
  // encodes through a BufferPool stop hitting the allocator.
  explicit BufWriter(Buffer recycled) : buf_(std::move(recycled)) {
    buf_.clear();
  }

  void reserve(size_t n) { buf_.reserve(n); }

  void put_u8(uint8_t v) { buf_.push_back(v); }
  void put_u16(uint16_t v) { put_raw(&v, sizeof(v)); }
  void put_u32(uint32_t v) { put_raw(&v, sizeof(v)); }
  void put_u64(uint64_t v) { put_raw(&v, sizeof(v)); }
  void put_i64(int64_t v) { put_raw(&v, sizeof(v)); }
  void put_f64(double v) { put_raw(&v, sizeof(v)); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }

  void put_bytes(std::string_view s) {
    put_u32(static_cast<uint32_t>(s.size()));
    put_raw(s.data(), s.size());
  }

  // Bulk append of pre-encoded bytes (no length prefix).  Lets a message
  // splice in an already-canonical sub-encoding with one memcpy.
  void put_span(const uint8_t* p, size_t n) { put_raw(p, n); }

  // Appends `n` uninitialized-ish bytes and returns a pointer to them, so
  // a fixed-width record loop can store fields directly instead of going
  // through one bounds-checked put_* call per field.  The pointer is valid
  // until the next mutating call.
  uint8_t* extend(size_t n) {
    const size_t off = buf_.size();
    buf_.resize(off + n);
    return buf_.data() + off;
  }

  // Overwrites an already-written u32 at byte `offset`: a streamed block
  // whose count is known only once it has been written (see
  // DepMap::RecordWriter) reserves the slot up front and fills it in last.
  void patch_u32(size_t offset, uint32_t v) {
    std::memcpy(buf_.data() + offset, &v, sizeof(v));
  }

  size_t size() const { return buf_.size(); }
  Buffer take() { return std::move(buf_); }
  const Buffer& data() const { return buf_; }

 private:
  void put_raw(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  Buffer buf_;
};

// Writer that only tallies bytes — no buffer, no heap allocation.  Feeding
// a message's encode() through one yields the exact wire size; the codec
// fields are fixed-width, so counting is pure arithmetic.
class CountingWriter {
 public:
  void reserve(size_t) {}

  void put_u8(uint8_t) { size_ += 1; }
  void put_u16(uint16_t) { size_ += 2; }
  void put_u32(uint32_t) { size_ += 4; }
  void put_u64(uint64_t) { size_ += 8; }
  void put_i64(int64_t) { size_ += 8; }
  void put_f64(double) { size_ += 8; }
  void put_bool(bool) { size_ += 1; }
  void put_bytes(std::string_view s) { size_ += 4 + s.size(); }
  void put_span(const uint8_t*, size_t n) { size_ += n; }

  size_t size() const { return size_; }

 private:
  size_t size_ = 0;
};

class CodecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// A nested byte blob inside a wire message (a context or session handed
// from function to function).  Either owns its bytes, or aliases a slice
// of a shared message buffer — so decoding a trigger does not copy the
// (potentially large) context out of the message, and decoding the context
// in turn can alias its records straight out of the same allocation.
class Payload {
 public:
  Payload() = default;
  // Owning payload around freshly encoded bytes (implicit: every Buffer
  // producer keeps working unchanged).  Empty buffers stay allocation-free.
  Payload(Buffer b) {
    if (b.empty()) return;
    auto sp = std::make_shared<const Buffer>(std::move(b));
    data_ = sp->data();
    size_ = sp->size();
    owner_ = std::move(sp);
  }
  // Aliasing payload: a slice of `owner`, kept alive by the shared count.
  Payload(std::shared_ptr<const Buffer> owner, const uint8_t* data,
          size_t size)
      : owner_(std::move(owner)), data_(data), size_(size) {}

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const std::shared_ptr<const Buffer>& owner() const { return owner_; }

  // Detached copy of the bytes (tests, diagnostics).
  Buffer bytes() const { return Buffer(data_, data_ + size_); }

 private:
  std::shared_ptr<const Buffer> owner_;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

class BufReader {
 public:
  explicit BufReader(const Buffer& b) : data_(b.data()), size_(b.size()) {}
  BufReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  // Shared-ownership reader: decode paths that can represent their result
  // as a view of the wire bytes (see DepMap) alias the buffer through
  // `owner()` instead of copying, keeping it alive past the decode.
  explicit BufReader(std::shared_ptr<const Buffer> owner)
      : data_(owner->data()), size_(owner->size()), owner_(std::move(owner)) {}
  // Shared-ownership reader over a slice of `owner` (a nested payload).
  BufReader(const uint8_t* data, size_t size,
            std::shared_ptr<const Buffer> owner)
      : data_(data), size_(size), owner_(std::move(owner)) {}
  // Reader over a payload, sharing its owner when it has one.
  explicit BufReader(const Payload& p)
      : BufReader(p.data(), p.size(), p.owner()) {}

  const std::shared_ptr<const Buffer>& owner() const { return owner_; }

  uint8_t get_u8() { return get<uint8_t>(); }
  uint16_t get_u16() { return get<uint16_t>(); }
  uint32_t get_u32() { return get<uint32_t>(); }
  uint64_t get_u64() { return get<uint64_t>(); }
  int64_t get_i64() { return get<int64_t>(); }
  double get_f64() { return get<double>(); }
  bool get_bool() { return get_u8() != 0; }

  // Reads a u32 element count and rejects one whose elements, each at
  // least `min_elem` wire bytes, cannot fit in what is left: a corrupt
  // count fails as a CodecError before anything is reserved for it.
  uint32_t get_count(size_t min_elem) {
    const uint32_t n = get_u32();
    if (static_cast<uint64_t>(n) * min_elem > remaining()) {
      throw CodecError("element count exceeds buffer");
    }
    return n;
  }

  std::string get_bytes() { return std::string(get_bytes_view()); }

  // Zero-copy view into the underlying buffer; valid only while the buffer
  // lives.  Decode paths that copy the bytes into longer-lived storage
  // anyway use this to skip the intermediate std::string.
  std::string_view get_bytes_view() {
    const uint32_t n = get_u32();
    require(n);
    std::string_view s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  // Bounds-checked view of the next `n` raw bytes; advances past them.
  // Valid only while the underlying buffer lives.
  const uint8_t* get_span(size_t n) {
    require(n);
    const uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  // The next unread byte: a decoder that keeps a run of fields as a view
  // marks where it starts and ends.
  const uint8_t* cursor() const { return data_ + pos_; }

  size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }

 private:
  template <typename T>
  T get() {
    require(sizeof(T));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  void require(size_t n) const {
    if (size_ - pos_ < n) throw CodecError("buffer underflow");
  }
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  std::shared_ptr<const Buffer> owner_;
};

// ---------------------------------------------------------------------------
// Wire traits: Wire<T>::put(w, v), Wire<T>::get(r) and Wire<T>::kMinSize,
// the fewest bytes any encoding of T occupies (decoders use it to reject
// corrupt element counts).
// ---------------------------------------------------------------------------

template <typename T>
struct Wire;

template <typename T>
concept WireDescribed = requires { T::kFields; };

template <typename W, typename T>
void encode_to(W& w, const T& v) {
  Wire<T>::put(w, v);
}

template <typename T>
T decode_from(BufReader& r) {
  return Wire<T>::get(r);
}

template <typename T>
concept WireScalar = std::same_as<T, uint8_t> || std::same_as<T, uint32_t> ||
                     std::same_as<T, uint64_t> || std::same_as<T, int64_t>;

// Goes through the writers' named put_* calls, which the compiler keeps
// out of line: inlining a vector insert at every field made encodes
// slower.
template <WireScalar T>
struct Wire<T> {
  static constexpr size_t kMinSize = sizeof(T);
  template <typename W>
  static void put(W& w, T v) {
    if constexpr (std::same_as<T, uint8_t>) w.put_u8(v);
    else if constexpr (std::same_as<T, uint32_t>) w.put_u32(v);
    else if constexpr (std::same_as<T, uint64_t>) w.put_u64(v);
    else w.put_i64(v);
  }
  static T get(BufReader& r) {
    if constexpr (std::same_as<T, uint8_t>) return r.get_u8();
    else if constexpr (std::same_as<T, uint32_t>) return r.get_u32();
    else if constexpr (std::same_as<T, uint64_t>) return r.get_u64();
    else return r.get_i64();
  }
};

template <>
struct Wire<bool> {
  static constexpr size_t kMinSize = 1;
  template <typename W>
  static void put(W& w, bool v) { w.put_bool(v); }
  static bool get(BufReader& r) { return r.get_bool(); }
};

template <>
struct Wire<Timestamp> {
  static constexpr size_t kMinSize = 8;
  template <typename W>
  static void put(W& w, Timestamp t) { w.put_u64(t.raw()); }
  static Timestamp get(BufReader& r) { return Timestamp(r.get_u64()); }
};

// Length-prefixed byte blobs: u32 length, then the bytes.
struct WireBlob {
  static constexpr size_t kMinSize = 4;
  template <typename W, typename T>
  static void put(W& w, const T& v) {
    w.put_bytes(std::string_view(reinterpret_cast<const char*>(v.data()),
                                 v.size()));
  }
};

template <>
struct Wire<std::string> : WireBlob {
  static std::string get(BufReader& r) { return r.get_bytes(); }
};

template <>
struct Wire<Value> : WireBlob {
  static Value get(BufReader& r) { return Value(r.get_bytes_view()); }
};

template <>
struct Wire<Buffer> : WireBlob {
  static Buffer get(BufReader& r) {
    const std::string_view s = r.get_bytes_view();
    const auto* p = reinterpret_cast<const uint8_t*>(s.data());
    return Buffer(p, p + s.size());
  }
};

// With a shared-ownership reader the payload aliases the message buffer;
// otherwise it owns a copy.
template <>
struct Wire<Payload> : WireBlob {
  static Payload get(BufReader& r) {
    const std::string_view s = r.get_bytes_view();
    if (s.empty()) return Payload();
    const auto* p = reinterpret_cast<const uint8_t*>(s.data());
    if (const auto& owner = r.owner()) return Payload(owner, p, s.size());
    auto copy = std::make_shared<const Buffer>(p, p + s.size());
    return Payload(copy, copy->data(), copy->size());
  }
};

// u32 count, then the elements.
template <typename T>
struct Wire<std::vector<T>> {
  static constexpr size_t kMinSize = 4;
  template <typename W>
  static void put(W& w, const std::vector<T>& v) {
    w.put_u32(static_cast<uint32_t>(v.size()));
    for (const T& e : v) Wire<T>::put(w, e);
  }
  static std::vector<T> get(BufReader& r) {
    const uint32_t n = r.get_count(Wire<T>::kMinSize);
    std::vector<T> v;
    v.reserve(n);
    for (uint32_t i = 0; i < n; ++i) v.push_back(Wire<T>::get(r));
    return v;
  }
};

// u32 count, then key/value pairs in key order.
template <typename K, typename V>
struct Wire<std::map<K, V>> {
  static constexpr size_t kMinSize = 4;
  template <typename W>
  static void put(W& w, const std::map<K, V>& m) {
    w.put_u32(static_cast<uint32_t>(m.size()));
    for (const auto& [k, v] : m) {
      Wire<K>::put(w, k);
      Wire<V>::put(w, v);
    }
  }
  static std::map<K, V> get(BufReader& r) {
    const uint32_t n = r.get_count(Wire<K>::kMinSize + Wire<V>::kMinSize);
    std::map<K, V> m;
    for (uint32_t i = 0; i < n; ++i) {
      const K k = Wire<K>::get(r);
      m[k] = Wire<V>::get(r);
    }
    return m;
  }
};

// A trailing optional scalar: written only when nonzero and read only when
// bytes remain, so it must be the last field and its message must not be
// followed by anything on the wire.
template <typename P>
struct TrailingNonzero {
  P field;
};

template <typename T, typename M>
constexpr TrailingNonzero<M T::*> trailing_nonzero(M T::* f) {
  return {f};
}

namespace wire_detail {

template <typename W, typename T, typename M>
void put_field(W& w, const T& v, M T::* f) {
  Wire<M>::put(w, v.*f);
}
template <typename W, typename T, typename M>
void put_field(W& w, const T& v, TrailingNonzero<M T::*> f) {
  if (v.*f.field != M{}) Wire<M>::put(w, v.*f.field);
}

template <typename T, typename M>
void get_field(BufReader& r, T& v, M T::* f) {
  v.*f = Wire<M>::get(r);
}
template <typename T, typename M>
void get_field(BufReader& r, T& v, TrailingNonzero<M T::*> f) {
  if (r.remaining() > 0) v.*f.field = Wire<M>::get(r);
}

template <typename T, typename M>
constexpr size_t min_size(M T::*) {
  return Wire<M>::kMinSize;
}
template <typename P>
constexpr size_t min_size(TrailingNonzero<P>) {
  return 0;
}

}  // namespace wire_detail

// A described struct: its kFields, in order.
template <WireDescribed T>
struct Wire<T> {
  static constexpr size_t kMinSize = std::apply(
      [](auto... f) { return (size_t{0} + ... + wire_detail::min_size(f)); },
      T::kFields);
  template <typename W>
  static void put(W& w, const T& v) {
    std::apply([&](auto... f) { (wire_detail::put_field(w, v, f), ...); },
               T::kFields);
  }
  static T get(BufReader& r) {
    T v{};
    std::apply([&](auto... f) { (wire_detail::get_field(r, v, f), ...); },
               T::kFields);
    return v;
  }
};

// A hand-coded type (see the header comment).  Every hand codec writes at
// least one byte.
template <typename T>
  requires(!WireDescribed<T> && requires(const T& v, BufReader& r,
                                         CountingWriter& w) {
    v.encode(w);
    { T::decode(r) } -> std::same_as<T>;
  })
struct Wire<T> {
  static constexpr size_t kMinSize = 1;
  template <typename W>
  static void put(W& w, const T& v) { v.encode(w); }
  static T get(BufReader& r) { return T::decode(r); }
};

// Size in bytes a message would occupy on the wire: its encode run against
// a CountingWriter, exact and allocation-free.
template <typename M>
size_t encoded_size(const M& m) {
  CountingWriter w;
  encode_to(w, m);
  return w.size();
}

// Encodes a message into a fresh buffer reserved to its exact size.
template <typename M>
Buffer encode_message(const M& m) {
  BufWriter w;
  w.reserve(encoded_size(m));
  encode_to(w, m);
  return w.take();
}

template <typename M>
M decode_message(const Buffer& b) {
  BufReader r(b);
  return decode_from<M>(r);
}

// Shared-ownership variant: view-capable fields of the decoded message
// (Payload, DepMap) alias `b` instead of copying out of it (the buffer
// stays alive as long as any such view does).
template <typename M>
M decode_message(std::shared_ptr<const Buffer> b) {
  BufReader r(std::move(b));
  return decode_from<M>(r);
}

// Decodes a nested payload.  When the payload aliases a shared message
// buffer, view-capable fields of the result alias it too.
template <typename M>
M decode_message(const Payload& p) {
  BufReader r(p);
  return decode_from<M>(r);
}

// Free list of message buffers.  Encoding acquires a buffer whose capacity
// survived its previous trip through the network, so steady-state message
// traffic allocates nothing; consumers hand exhausted payloads back via
// release().  Purely a memory-reuse layer: acquire/release order has no
// observable effect on the simulation schedule.
class BufferPool {
 public:
  explicit BufferPool(size_t max_free = 4096) : max_free_(max_free) {}

  Buffer acquire() {
    if (free_.empty()) {
      ++misses_;
      return Buffer();
    }
    ++hits_;
    Buffer b = std::move(free_.back());
    free_.pop_back();
    b.clear();
    return b;
  }

  void release(Buffer&& b) {
    if (b.capacity() == 0 || free_.size() >= max_free_) return;
    free_.push_back(std::move(b));
  }

  size_t free_count() const { return free_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  std::vector<Buffer> free_;
  size_t max_free_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

// Pooled encode: recycled buffer + exact reserve.
template <typename M>
Buffer encode_message(const M& m, BufferPool& pool) {
  BufWriter w(pool.acquire());
  w.reserve(encoded_size(m));
  encode_to(w, m);
  return w.take();
}

}  // namespace faastcc
