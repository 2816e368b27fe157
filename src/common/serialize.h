// Minimal binary codec used for every simulated network message.
//
// Fixed-width little-endian encoding keeps message sizes exact and easy to
// reason about: the metadata-size experiments (Fig. 5 and Fig. 7 of the
// paper) report the byte counts produced by this codec.  It plays the role
// protocol buffers play in the authors' prototype.
//
// Message structs provide `template <typename W> void encode(W&) const`,
// generic over the writer, so the same encode body drives both the real
// BufWriter and the allocation-free CountingWriter (exact wire sizes
// without encoding, and exact reserve() hints before encoding).
#pragma once

#include <concepts>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

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

  const std::shared_ptr<const Buffer>& owner() const { return owner_; }

  uint8_t get_u8() { return get<uint8_t>(); }
  uint16_t get_u16() { return get<uint16_t>(); }
  uint32_t get_u32() { return get<uint32_t>(); }
  uint64_t get_u64() { return get<uint64_t>(); }
  int64_t get_i64() { return get<int64_t>(); }
  double get_f64() { return get<double>(); }
  bool get_bool() { return get_u8() != 0; }

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

// Size in bytes a message would occupy on the wire.  Runs the message's
// encode body against a CountingWriter: exact, and allocation-free.
template <typename M>
size_t encoded_size(const M& m) {
  CountingWriter w;
  m.encode(w);
  return w.size();
}

// True when M supplies a hand-written O(1)-ish wire-size hint.
template <typename M>
concept HasSizeHint = requires(const M& m) {
  { m.size_hint() } -> std::convertible_to<size_t>;
};

// Reserve hint for encoding `m`: the message's own size_hint() when it has
// one (cheap arithmetic on the hot types), otherwise an exact counting
// pass (still allocation-free).
template <typename M>
size_t wire_size_hint(const M& m) {
  if constexpr (HasSizeHint<M>) {
    return m.size_hint();
  } else {
    return encoded_size(m);
  }
}

// Encodes a message struct into a fresh buffer.
template <typename M>
Buffer encode_message(const M& m) {
  BufWriter w;
  w.reserve(wire_size_hint(m));
  m.encode(w);
  return w.take();
}

// Decodes a message struct that provides `static M decode(BufReader&)`.
template <typename M>
M decode_message(const Buffer& b) {
  BufReader r(b);
  return M::decode(r);
}

// Shared-ownership variant: view-capable fields of the decoded message
// alias `b` instead of copying out of it (the buffer stays alive as long
// as any such view does).
template <typename M>
M decode_message(std::shared_ptr<const Buffer> b) {
  BufReader r(std::move(b));
  return M::decode(r);
}

// Decodes a nested payload.  When the payload aliases a shared message
// buffer, view-capable fields of the result alias it too.
template <typename M>
M decode_message(const Payload& p) {
  BufReader r(p.data(), p.size(), p.owner());
  return M::decode(r);
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
  w.reserve(wire_size_hint(m));
  m.encode(w);
  return w.take();
}

}  // namespace faastcc
