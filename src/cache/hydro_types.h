// Dependency metadata of the HydroCache baseline.
//
// HydroCache tracks causality explicitly: every stored value carries the
// versions in its causal past (its writer's reads, co-written siblings and
// one further level of their dependencies), and a transaction's context
// accumulates the union of everything it has read plus those values'
// dependencies.  This is the metadata whose size Fig. 5 measures and whose
// transfer and merging dominates HydroCache's dynamic-transaction latency.
//
// Representation (the dependency-metadata engine):
//
//   * A `DepMap` is its canonical wire image: a u32 count followed by
//     fixed-width 26-byte records sorted by raw key, held behind a shared
//     owner.  Copying a map (shipping a context downstream, attaching it to
//     a read request) shares the image.  A map decoded through a shared-
//     ownership reader aliases the records inside the message it arrived
//     in, so decoding copies nothing; lookups binary-search the records
//     and re-encoding an untouched map is one bulk copy.
//   * Point updates land in a small sorted overlay (`pending_`) of
//     (key, entry) pairs, shadowing same-key records.  Once it fills it is
//     folded into a fresh image with bulk copies of the untouched runs, so
//     the read path's require()/mark_read() bursts cost amortized
//     O(log n) instead of an image rebuild each.
//   * The wire encoding is canonical: entries are emitted sorted by key,
//     so the same logical map encodes to the same bytes regardless of
//     insertion order.  Wire size is 4 + 26 bytes per entry, the Fig. 5 /
//     Fig. 7 byte accounting of the hash-map representation this replaced.
//     Decoding a stream whose keys are not strictly ascending throws
//     CodecError; every encoder in the program writes canonical order.
//   * `merge` is one sorted pass over two images, straight into a new
//     image; merging into an empty map adopts the other image.
//   * Validation is a sorted merge.  Stored dependency lists (`DepList`)
//     are key-sorted like the map, so the consistency check walks a
//     candidate's list against the context with one forward `Seeker`
//     (galloping over overlay and image) instead of binary-searching per
//     entry, and `require_all` applies a whole list as one merge into the
//     overlay.  `lookup` remains for isolated point queries.
//   * Reads never fold.  `for_each`, `encode` and the pruned export
//     `encode_if` walk the image and the overlay as one merged sorted
//     stream, so shipping a context (with a read request, downstream, or
//     as a session) writes each record once, straight into the message.
//     Metadata GC and the static-transaction prune are `encode_if`
//     predicates applied as the context ships.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/serialize.h"
#include "common/types.h"
#include "storage/messages.h"

namespace faastcc::cache {

// One causal requirement: "any consistent snapshot containing the carrier
// must contain key at version >= counter".  `read` marks entries for keys
// the transaction has actually read (their versions are fixed; a conflict
// against them aborts the DAG).  `written_at` drives metadata GC against
// the store's gossiped stable cut.
//
// `level` is the transitive distance from a direct read: 0 for versions
// the transaction read (or a write's co-written siblings), 1 for their
// direct dependencies, 2 for dependencies-of-dependencies.  Stored
// dependency lists keep levels 0-1 only — the bounded "nearest
// dependencies plus one level" scheme that keeps stored metadata at a
// stable fixpoint while transaction contexts accumulate the merged
// closure (the size asymmetry between Fig. 7 and Fig. 5).
//
// Canonical-form invariant: `read` entries keep `level == 0` (a read IS a
// distance-0 dependency; no consumer distinguishes a read entry's level,
// and pinning it makes merge insensitive to operation order).
struct Dep {
  uint64_t counter = 0;
  SimTime written_at = 0;
  bool read = false;
  uint8_t level = 0;
};

// Wire size of one dependency entry: key + counter + written_at + flags.
constexpr size_t kDepWireBytes = 8 + 8 + 8 + 1 + 1;

// Field offsets inside one canonical 26-byte wire record.
constexpr size_t kRawKeyOff = 0;
constexpr size_t kRawCounterOff = 8;
constexpr size_t kRawWrittenAtOff = 16;
constexpr size_t kRawReadOff = 24;
constexpr size_t kRawLevelOff = 25;

class DepList;

class DepMap {
 public:
  // Raises the requirement for `k` (keeps the max counter; `read` is
  // sticky once set for the surviving entry; `level` keeps the minimum).
  void require(Key k, uint64_t counter, SimTime written_at, uint8_t level);
  // Records that the transaction read `k` at `counter` (level 0).
  void mark_read(Key k, uint64_t counter, SimTime written_at);
  // require(d.key, d.counter, d.written_at, min(d.level + 1, 2)) for every
  // entry of a key-sorted stored list, in list order — a stored
  // dependency at level L becomes a context entry at L + 1, and level-2
  // entries are kept for validation but never re-stored.  Applied as one
  // sorted merge: a forward pass over list, overlay and image, then one
  // merge of the new overlay entries.
  void require_all(const DepList& deps);

  // Point query: the overlay, then a binary search of the image's
  // records.  A shipped context is probed and discarded, so nothing is
  // parsed beyond the record found; walks of a sorted key sequence use a
  // Seeker instead.
  bool lookup(Key k, Dep& out) const;
  // Forward-only point queries over a non-decreasing key sequence (see
  // the definition below the class).
  class Seeker;

  size_t size() const { return raw_count() + pending_.size() - overlap_; }
  bool empty() const { return size() == 0; }

  void merge(const DepMap& other);
  // Folds the point-insert overlay into the image (no-op when empty).  A
  // compacted map copies as a pure refcount bump.  Encoding and traversal
  // do not need it: they walk image and overlay merged.
  void compact() const { flush(); }

  size_t wire_bytes() const { return 4 + size() * kDepWireBytes; }

  // Canonical encoding: entries sorted by raw key.  Stable across
  // insertion orders and merge histories.  The overlay is never folded:
  // the image and the overlay are walked as one merged sorted stream
  // straight into the writer, unshadowed runs as bulk copies.  A map with
  // no overlay re-emits its image with one copy (it IS the encoding).
  template <typename W>
  void encode(W& w) const {
    if constexpr (std::is_same_v<W, BufWriter>) {
      RecordWriter out(w);
      walk([&out](const uint8_t* recs,
                  size_t n) { out.append_records(recs, n); },
           [&out](Key k, const Dep& d) { out.append(k, d); });
      out.finish();
    } else {
      // Tallying writer (CountingWriter): records are fixed-width, so the
      // size is arithmetic — never walk a 10^3-entry map just to count it.
      w.put_u32(static_cast<uint32_t>(size()));
      w.put_span(nullptr, size() * kDepWireBytes);
    }
  }

  // Ascending-key traversal that does not fold the overlay: calls
  // f(Key, const Dep&) for every entry.  This is the export/projection
  // workhorse (metadata byte accounting, commit dependency-list assembly,
  // session rebuilds).
  template <typename F>
  void for_each(F&& f) const {
    walk(
        [&f](const uint8_t* recs, size_t cnt) {
          for (const uint8_t* p = recs; p != recs + cnt * kDepWireBytes;
               p += kDepWireBytes) {
            f(raw_u64(p + kRawKeyOff), parse_raw(p));
          }
        },
        f);
  }
  // Throws CodecError unless the keys are strictly ascending.
  static DepMap decode(BufReader& r);

  // Streams canonical records into a BufWriter: the u32 count slot is
  // written up front and patched by finish().  Appends must come in
  // ascending key order, each key at most once — the shape of a pruned or
  // re-levelled traversal of a sorted map, which can thus be written
  // straight into the message it ships in instead of being built as a map
  // first and copied.
  class RecordWriter {
   public:
    explicit RecordWriter(BufWriter& w) : w_(w), count_at_(w.size()) {
      w.put_u32(0);
    }
    void append(Key k, const Dep& d) {
      store_record(w_.extend(kDepWireBytes), k, d);
      ++count_;
    }
    // `n` whole canonical records, copied in bulk.
    void append_records(const uint8_t* recs, size_t n) {
      w_.put_span(recs, n * kDepWireBytes);
      count_ += static_cast<uint32_t>(n);
    }
    // Patches the count; returns it.
    uint32_t finish() {
      w_.patch_u32(count_at_, count_);
      return count_;
    }

   private:
    BufWriter& w_;
    size_t count_at_;
    uint32_t count_ = 0;
  };

  // One-pass pruned export: encodes exactly the entries satisfying
  // keep(key, entry), without folding the overlay or building the pruned
  // map.  Kept runs of records are copied in bulk.  Returns the number of
  // entries written.
  template <typename Pred>
  uint32_t encode_if(BufWriter& w, Pred&& keep) const {
    RecordWriter out(w);
    walk(
        [&](const uint8_t* recs, size_t cnt) {
          const uint8_t* run = recs;
          const uint8_t* end = recs + cnt * kDepWireBytes;
          for (const uint8_t* p = recs; p != end; p += kDepWireBytes) {
            if (keep(raw_u64(p + kRawKeyOff), parse_raw(p))) continue;
            out.append_records(run, (p - run) / kDepWireBytes);
            run = p + kDepWireBytes;
          }
          out.append_records(run, (end - run) / kDepWireBytes);
        },
        [&](Key k, const Dep& d) {
          if (keep(k, d)) out.append(k, d);
        });
    return out.finish();
  }

 private:
  // An overlay entry: the raw key with its entry.
  struct Entry {
    Key key = 0;
    Dep dep;
  };

  static uint64_t raw_u64(const uint8_t* p) {
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  static int64_t raw_i64(const uint8_t* p) {
    int64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  static Dep parse_raw(const uint8_t* rec) {
    Dep d;
    d.counter = raw_u64(rec + kRawCounterOff);
    d.written_at = raw_i64(rec + kRawWrittenAtOff);
    d.read = rec[kRawReadOff] != 0;
    d.level = rec[kRawLevelOff];
    return d;
  }
  // Writes one canonical 26-byte record (read entries at level 0).
  static void store_record(uint8_t* p, Key k, const Dep& d) {
    std::memcpy(p + kRawKeyOff, &k, 8);
    std::memcpy(p + kRawCounterOff, &d.counter, 8);
    std::memcpy(p + kRawWrittenAtOff, &d.written_at, 8);
    p[kRawReadOff] = d.read ? 1 : 0;
    p[kRawLevelOff] = d.read ? 0 : d.level;
  }
  const uint8_t* raw_records() const { return raw_.data + 4; }
  size_t raw_count() const { return (raw_.size - 4) / kDepWireBytes; }
  Key raw_key(size_t i) const {
    return raw_u64(raw_records() + i * kDepWireBytes + kRawKeyOff);
  }

  // First index i >= from with key_at(i) >= k, for keys ascending over
  // [0, n): exponential steps from `from`, then a binary search of the
  // last step.  A short hop — the common case when a sorted list walks a
  // dense context — costs a probe or two.
  template <typename KeyAt>
  static size_t gallop(size_t from, size_t n, Key k, KeyAt&& key_at) {
    if (from >= n || key_at(from) >= k) return from;
    size_t lo = from;  // key_at(lo) < k
    size_t step = 1;
    while (lo + step < n && key_at(lo + step) < k) {
      lo += step;
      step *= 2;
    }
    size_t hi = std::min(lo + step, n);  // hi == n or key_at(hi) >= k
    ++lo;
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (key_at(mid) < k) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  // Where a key lives: the overlay, an image record, or nowhere.
  struct Loc {
    enum Where { kNone, kPending, kRaw } where = kNone;
    size_t idx = 0;
  };
  Loc locate(Key k) const;
  // The entry at `loc` (never kNone).
  Dep at(Loc loc) const {
    return loc.where == Loc::kRaw
               ? parse_raw(raw_records() + loc.idx * kDepWireBytes)
               : pending_[loc.idx].dep;
  }
  // require()/mark_read(): inserts `fresh` for an absent key, otherwise
  // applies update(Dep&) -> changed to the entry in place (overlay) or to
  // an overlay copy shadowing its record (image).
  template <typename Update>
  void upsert(Key k, const Dep& fresh, Update&& update);
  // Inserts an overlay entry for a key the overlay lacks; `shadows` when
  // the image holds a record for it.
  void add_pending(Key k, const Dep& d, bool shadows);
  // Folds the overlay once it reaches its threshold.
  void fold_if_full();
  // Logically const: folds the overlay into the image.  Inline guard so
  // the (overwhelmingly common) nothing-pending case costs one branch.
  void flush() const {
    if (!pending_.empty()) flush_slow();
  }
  void flush_slow() const;

  // The merged ascending-key walk behind encode/for_each/encode_if (and
  // the fold): raw_run(recs, n) receives each maximal run of records no
  // overlay entry shadows, and entry(key, dep) each overlay entry in place
  // of the record it shadows, if any.
  template <typename RawRun, typename OverlayEntry>
  void walk(RawRun&& raw_run, OverlayEntry&& entry) const {
    const uint8_t* recs = raw_records();
    const size_t n = raw_count();
    size_t i = 0;
    for (const Entry& e : pending_) {
      const size_t run = i;
      while (i < n && raw_key(i) < e.key) ++i;
      if (i > run) raw_run(recs + run * kDepWireBytes, i - run);
      if (i < n && raw_key(i) == e.key) ++i;  // shadowed by the overlay
      entry(e.key, e.dep);
    }
    if (i < n) raw_run(recs + i * kDepWireBytes, n - i);
  }

  // The canonical wire image (count + sorted records).  It is an owner +
  // span rather than a whole buffer: a map decoded through a shared-
  // ownership BufReader aliases the records inside the network message it
  // arrived in, with `owner` keeping that message's buffer alive.  An
  // empty map points at a static zero count.
  struct RawImage {
    static constexpr uint8_t kEmpty[4] = {};
    std::shared_ptr<const void> owner;
    const uint8_t* data = kEmpty;  // the u32 count, records follow
    size_t size = sizeof(kEmpty);  // 4 + n * kDepWireBytes
    static RawImage own(Buffer b) {
      auto sp = std::make_shared<const Buffer>(std::move(b));
      return RawImage{sp, sp->data(), sp->size()};
    }
  };
  mutable RawImage raw_;
  // Small overlay sorted by key: new keys, and point updates shadowing
  // same-key records.
  mutable std::vector<Entry> pending_;
  // How many pending_ entries shadow an image record (they replace rather
  // than add on a fold).
  mutable uint32_t overlap_ = 0;
};

// Forward-only point queries: seek(k, out) answers lookup(k, out) for a
// non-decreasing sequence of keys, galloping on from the previous position
// in the overlay and in the image instead of searching each from scratch.
// Walking a key-sorted DepList against a context is thus one merge.
// Mutations that add or remove keys invalidate it.
class DepMap::Seeker {
 public:
  explicit Seeker(const DepMap& m) : m_(m) {}
  bool seek(Key k, Dep& out) {
    const Loc loc = next(k);
    if (loc.where == Loc::kNone) return false;
    out = m_.at(loc);
    return true;
  }

 private:
  friend class DepMap;
  // locate(k) for k no smaller than the previous key.
  Loc next(Key k);

  const DepMap& m_;
  size_t pending_at_ = 0;
  size_t raw_at_ = 0;
#ifndef NDEBUG
  Key last_ = 0;
#endif
};

// A dependency list entry as stored alongside a value.  Level 0 entries
// are the writer's reads and co-written siblings; level 1 entries are the
// direct dependencies of those reads.
struct StoredDep {
  Key key = 0;
  uint64_t counter = 0;
  SimTime written_at = 0;
  uint8_t level = 0;

  static constexpr auto kFields =
      std::tuple{&StoredDep::key, &StoredDep::counter, &StoredDep::written_at,
                 &StoredDep::level};
};

// Wire size of one stored dependency: key + counter + written_at + level.
constexpr size_t kStoredDepWireBytes = 8 + 8 + 8 + 1;
static_assert(Wire<StoredDep>::kMinSize == kStoredDepWireBytes);

// Immutable stored-dependency list in one word: a `Value` block holding
// exactly the list's wire records, with no count prefix.  Every holder —
// cache entry, read response, client context — shares the block; reading
// parses a record into a StoredDep by value.  Wire format is that of a
// std::vector<StoredDep>.
//
// Blocks are shared by content (common/shared_block.h): building or
// decoding a list takes the held block with its record bytes, so the
// caches that decode one push, and the client that decodes the list a
// cache just sent, hold one block between them.  A miss allocates one
// exact-size block, so a long-lived list never keeps a push or response
// frame alive.
//
// Entries are in non-decreasing key order (the order commits write them),
// which is what lets validation walk a list against a context as one
// merge (DepMap::Seeker, DepMap::require_all).  An unsorted input is
// stable-sorted on construction or decode, so equal keys keep their
// relative order.
class DepList {
 public:
  class const_iterator {
   public:
    explicit const_iterator(const char* p) : p_(p) {}
    StoredDep operator*() const { return parse(p_); }
    const_iterator& operator++() {
      p_ += kStoredDepWireBytes;
      return *this;
    }
    bool operator==(const const_iterator& o) const = default;

   private:
    const char* p_;
  };

  DepList() = default;
  DepList(std::vector<StoredDep> deps);  // NOLINT(google-explicit-constructor)

  size_t size() const { return records_.size() / kStoredDepWireBytes; }
  bool empty() const { return records_.empty(); }
  // The records' bytes; lists with equal records share them.
  const char* data() const { return records_.data(); }
  const_iterator begin() const { return const_iterator(records_.data()); }
  const_iterator end() const {
    return const_iterator(records_.data() + records_.size());
  }
  StoredDep operator[](size_t i) const {
    return parse(records_.data() + i * kStoredDepWireBytes);
  }

  template <typename W>
  void encode(W& w) const {
    w.put_u32(static_cast<uint32_t>(size()));
    w.put_span(reinterpret_cast<const uint8_t*>(records_.data()),
               records_.size());
  }
  static DepList decode(BufReader& r);

 private:
  static StoredDep parse(const char* rec) {
    StoredDep d;
    std::memcpy(&d.key, rec, 8);
    std::memcpy(&d.counter, rec + 8, 8);
    std::memcpy(&d.written_at, rec + 16, 8);
    d.level = static_cast<uint8_t>(rec[24]);
    return d;
  }

  Value records_;
};
static_assert(sizeof(DepList) == sizeof(void*));

// Payload persisted in the eventual store for every HydroCache write:
// the application value plus the dependency list.
struct HydroStored {
  Value value;
  DepList deps;

  static constexpr auto kFields =
      std::tuple{&HydroStored::value, &HydroStored::deps};
};

}  // namespace faastcc::cache
