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
//   * Keys are interned through a per-thread `KeyInterner`, so an in-memory
//     dependency entry carries a dense `uint32_t` id instead of the raw
//     8-byte key.  Ids are process-internal: they never reach the wire, so
//     their assignment order has no observable effect on the simulation.
//   * A `DepMap` is a flat vector of 24-byte `Dep` entries kept sorted by
//     *raw key* (resolved through the interner), held behind a refcounted
//     copy-on-write node.  Copying a map — shipping a context downstream,
//     attaching it to a read request — bumps a refcount; mutation clones
//     only when the node is actually shared.  `merge`, `gc_before` and
//     `restrict_to` are linear scans over contiguous memory that build
//     their result in a reused thread-local scratch arena.
//   * Point insertions land in a small sorted overlay (`pending_`) that is
//     bulk-merged into the main node once it fills, so the read path's
//     require()/mark_read() bursts cost amortized O(log n) instead of a
//     vector memmove each.
//   * The wire encoding is canonical: entries are emitted sorted by key,
//     so the same logical map encodes to the same bytes regardless of
//     insertion order or stdlib hash implementation.  Wire size is
//     unchanged (4-byte count + 26 bytes/entry), which keeps the Fig. 5 /
//     Fig. 7 byte accounting identical to the hash-map representation.
//   * Because the wire image is canonical and sorted, a decoded map keeps
//     the raw bytes as its representation (`raw_`) instead of parsing
//     them: lookups search the fixed-width records directly and
//     re-encoding is one bulk copy.  Mutations of a raw-backed map go to
//     the same pending overlay (shadowing same-key records); the fold, the
//     prune (`filter`) and the merge operate at the record level with bulk
//     copies, so a context can live its entire decode → update → prune →
//     re-ship cycle without ever being parsed into entries or touching the
//     interner.
//   * Validation is a sorted merge.  Stored dependency lists (`DepList`)
//     are key-sorted like the map, so the consistency check walks a
//     candidate's list against the context with one forward `Seeker`
//     (galloping over overlay and image) instead of binary-searching per
//     entry, and `require_all` applies a whole list as one merge into the
//     overlay.  `lookup` remains for isolated point queries.
//   * Reads never fold.  `for_each`, `encode` and the pruned export
//     `encode_if` walk the image (or entry node) and the overlay as one
//     merged sorted stream, so shipping a context — with a read request,
//     downstream, or as a session — writes each record once, straight
//     into the message, instead of folding and re-copying first.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <unordered_map>
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
//
// `key_id` is the interned key (see KeyInterner); 24 bytes total versus
// the ~56-byte heap node an unordered_map entry used to cost.
struct Dep {
  uint64_t counter = 0;
  SimTime written_at = 0;
  uint32_t key_id = 0;
  bool read = false;
  uint8_t level = 0;
};

// Wire size of one dependency entry: key + counter + written_at + flags.
// The wire carries the raw 8-byte key, never the interned id.
constexpr size_t kDepWireBytes = 8 + 8 + 8 + 1 + 1;

// Field offsets inside one canonical 26-byte wire record.
constexpr size_t kRawKeyOff = 0;
constexpr size_t kRawCounterOff = 8;
constexpr size_t kRawWrittenAtOff = 16;
constexpr size_t kRawReadOff = 24;
constexpr size_t kRawLevelOff = 25;

// Dense key-id table.  One instance per thread (the simulation is
// single-threaded per cluster; a multi-process or thread-per-cluster sweep
// runner gets an independent table per thread for free).  Ids are
// append-only and stay valid for the life of the thread.
//
// Workload keys are small integers, so the key->id direction is a direct-
// mapped array for keys below `kDenseLimit` — interning is one load on the
// decode/materialize hot path, not a hash probe.  Larger keys fall back to
// a hash map; both directions share the same id space.
class KeyInterner {
 public:
  static KeyInterner& instance() {
    thread_local KeyInterner interner;
    return interner;
  }

  uint32_t intern(Key k) {
    if (k < kDenseLimit) {
      if (k >= dense_.size()) grow_dense(k);
      uint32_t& slot = dense_[static_cast<size_t>(k)];
      if (slot == kUnassigned) {
        slot = static_cast<uint32_t>(keys_.size());
        keys_.push_back(k);
      }
      return slot;
    }
    auto [it, inserted] =
        ids_.emplace(k, static_cast<uint32_t>(keys_.size()));
    if (inserted) keys_.push_back(k);
    return it->second;
  }

  Key key_of(uint32_t id) const { return keys_[id]; }
  size_t size() const { return keys_.size(); }

 private:
  // 2M dense slots = 8 MB worst case, touched pages only.
  static constexpr Key kDenseLimit = Key{1} << 21;
  static constexpr uint32_t kUnassigned = UINT32_MAX;

  KeyInterner() = default;
  void grow_dense(Key k) {
    size_t target = dense_.empty() ? 1024 : dense_.size() * 2;
    if (target <= k) target = static_cast<size_t>(k) + 1;
    dense_.resize(std::min<size_t>(target, kDenseLimit), kUnassigned);
  }

  std::vector<uint32_t> dense_;
  std::unordered_map<Key, uint32_t> ids_;  // keys >= kDenseLimit only
  std::vector<Key> keys_;
};

class DepList;

class DepMap {
 public:
  // Iteration yields (raw key, entry) pairs in ascending key order — the
  // same order as the canonical wire encoding.
  class const_iterator {
   public:
    const_iterator() = default;
    explicit const_iterator(const Dep* p) : p_(p) {}
    std::pair<Key, const Dep&> operator*() const {
      return {KeyInterner::instance().key_of(p_->key_id), *p_};
    }
    const_iterator& operator++() {
      ++p_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return p_ == o.p_; }
    bool operator!=(const const_iterator& o) const { return p_ != o.p_; }

   private:
    const Dep* p_ = nullptr;
  };

  // Raises the requirement for `k` (keeps the max counter; `read` is
  // sticky once set for the surviving entry; `level` keeps the minimum).
  void require(Key k, uint64_t counter, SimTime written_at, uint8_t level);
  // Records that the transaction read `k` at `counter` (level 0).
  void mark_read(Key k, uint64_t counter, SimTime written_at);
  // require(d.key, d.counter, d.written_at, min(d.level + 1, 2)) for every
  // entry of a key-sorted stored list, in list order — a stored
  // dependency at level L becomes a context entry at L + 1, and level-2
  // entries are kept for validation but never re-stored.  Applied as one
  // sorted merge: a forward pass over list, overlay and image (or entry
  // node), then one merge of the new overlay entries.
  void require_all(const DepList& deps);

  const Dep* find(Key k) const;
  // Materialization-free point query: a raw-backed map (fresh off the
  // wire) is binary-searched record-by-record; otherwise equivalent to
  // find().  `out.key_id` is NOT populated on the raw path — the caller
  // already has the key.  A shipped context is probed and discarded, so it
  // must never pay for parsing every entry; walks of a sorted key
  // sequence use a Seeker instead.
  bool lookup(Key k, Dep& out) const;
  // Forward-only point queries over a non-decreasing key sequence (see
  // the definition below the class).
  class Seeker;

  size_t size() const {
    if (raw_) return raw_count() + pending_.size() - overlap_;
    return entries().size() + pending_.size();
  }
  bool empty() const { return size() == 0; }

  void merge(const DepMap& other);
  // Drops entries written before `horizon` (globally visible, so no longer
  // needed for consistency checks).  Read markers are never dropped while
  // the transaction runs; the context is rebuilt per DAG anyway.
  void gc_before(SimTime horizon);
  // Keeps only keys contained in `keys` (the static-transaction
  // optimization: with a declared read/write set, metadata irrelevant to
  // the remaining functions can be pruned before shipping downstream).
  // `read`-marked entries are exempt: they drive conflict aborts while the
  // transaction runs, so membership in the declared set never drops them —
  // the same invariant gc_before documents.
  template <typename KeySet>
  void restrict_to(const KeySet& keys) {
    filter([&keys](Key k, const Dep& d) {
      return d.read || keys.count(k) != 0;
    });
  }
  // Folds the point-insert overlay into the main node (no-op when empty).
  // A compacted map copies as a pure refcount bump.  Encoding and
  // traversal do not need it: they walk node and overlay merged.
  void compact() const { flush(); }

  // General one-pass prune: keeps entries satisfying keep(key, entry).
  // gc_before + restrict_to back to back are two full scans (and up to two
  // node rebuilds); callers that apply both fold the predicates into one
  // retain() call.
  template <typename Pred>
  void retain(Pred keep) {
    filter(keep);
  }

  size_t wire_bytes() const { return 4 + size() * kDepWireBytes; }

  // Canonical encoding: entries sorted by raw key.  Stable across
  // insertion orders, merge histories and stdlib implementations.  The
  // overlay is never folded: the raw image (or entry node) and the pending
  // overlay are walked as one merged sorted stream straight into the
  // writer, unshadowed raw runs as bulk copies.  A raw-backed map with no
  // overlay re-emits its wire image with one copy (it IS the encoding).
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

  // Ascending-key traversal that neither folds the overlay nor
  // materializes a raw-backed map: calls f(Key, const Dep&) for every
  // entry.  `key_id` is NOT populated for entries visited on the raw path
  // — the callback already gets the raw key.  This is the export/
  // projection workhorse (metadata byte accounting, commit dependency-list
  // assembly, session rebuilds).
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
  // keep(key, entry), as encode() of the map after retain(keep) would,
  // without folding the overlay or building the pruned map.  Kept runs of
  // raw records are copied in bulk.  Returns the number of entries
  // written.
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

  const_iterator begin() const {
    materialize();
    flush();
    const Entries& es = entries();
    return const_iterator(es.data());
  }
  const_iterator end() const {
    materialize();
    flush();
    const Entries& es = entries();
    return const_iterator(es.data() + es.size());
  }

 private:
  using Entries = std::vector<Dep>;

  static Key key_of(const Dep& d) {
    return KeyInterner::instance().key_of(d.key_id);
  }
  static const Entries& empty_entries();
  static Entries& scratch();

  const Entries& entries() const {
    return rep_ ? *rep_ : empty_entries();
  }

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
  // Parses one wire record; `key_id` is left unset (callers that need it
  // intern explicitly — parsing must stay interning-free).
  static Dep parse_raw(const uint8_t* rec) {
    Dep d;
    d.counter = raw_u64(rec + kRawCounterOff);
    d.written_at = raw_i64(rec + kRawWrittenAtOff);
    d.read = rec[kRawReadOff] != 0;
    d.level = rec[kRawLevelOff];
    return d;
  }
  const uint8_t* raw_records() const { return raw_.data + 4; }
  size_t raw_count() const { return (raw_.size - 4) / kDepWireBytes; }

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
  Key raw_key(size_t i) const {
    return raw_u64(raw_records() + i * kDepWireBytes + kRawKeyOff);
  }
  // gallop()'s key_at over a vector of entries.
  static auto entry_keys(const KeyInterner& interner, const Entries& es) {
    return [&interner, &es](size_t i) { return interner.key_of(es[i].key_id); };
  }

  // Where a key lives: the main node, the overlay, a raw wire record, or
  // nowhere.
  struct Loc {
    enum Where { kNone, kRep, kPending, kRaw } where = kNone;
    size_t idx = 0;
  };
  Loc locate(Key k) const;
  // The entry at `loc` (never kNone); `key_id` is 0 for a raw record, as
  // in lookup().
  Dep at(Loc loc) const {
    if (loc.where == Loc::kRaw) {
      return parse_raw(raw_records() + loc.idx * kDepWireBytes);
    }
    return loc.where == Loc::kRep ? (*rep_)[loc.idx] : pending_[loc.idx];
  }
  Dep& mutable_at(Loc loc);
  void insert_new(Dep d, Key k);
  // Shadows raw record `k` with an updated overlay entry.
  void promote(Dep d, Key k);
  // Logically const: folds the overlay into the node.  Inline guard so the
  // (overwhelmingly common) nothing-pending case costs one branch, not an
  // out-of-line call on every locate/encode.
  void flush() const {
    if (!pending_.empty()) flush_slow();
  }
  void flush_slow() const;
  // Logically const: parses a raw wire image into an entry node.  Content
  // is unchanged; only the representation switches.
  void materialize() const {
    if (raw_) materialize_slow();
  }
  void materialize_slow() const;

  // Writes one canonical 26-byte record (read entries at level 0).
  static void store_record(uint8_t* p, Key k, const Dep& d) {
    std::memcpy(p + kRawKeyOff, &k, 8);
    std::memcpy(p + kRawCounterOff, &d.counter, 8);
    std::memcpy(p + kRawWrittenAtOff, &d.written_at, 8);
    p[kRawReadOff] = d.read ? 1 : 0;
    p[kRawLevelOff] = d.read ? 0 : d.level;
  }

  // The merged ascending-key walk behind encode/for_each/encode_if: the
  // main representation and the pending overlay as one sorted stream,
  // without folding.  On a raw-backed map, raw_run(recs, n) receives each
  // maximal run of records no overlay entry shadows, and entry(key, dep)
  // each overlay entry in place of the record it shadows.  On an entry
  // node, entry() receives every node and overlay entry (disjoint keys).
  template <typename RawRun, typename Entry>
  void walk(RawRun&& raw_run, Entry&& entry) const {
    const KeyInterner& interner = KeyInterner::instance();
    if (raw_) {
      const uint8_t* recs = raw_records();
      const size_t n = raw_count();
      size_t i = 0;
      for (const Dep& d : pending_) {
        const Key kp = interner.key_of(d.key_id);
        const size_t run = i;
        while (i < n && raw_u64(recs + i * kDepWireBytes + kRawKeyOff) < kp) {
          ++i;
        }
        if (i > run) raw_run(recs + run * kDepWireBytes, i - run);
        if (i < n && raw_u64(recs + i * kDepWireBytes + kRawKeyOff) == kp) {
          ++i;  // shadowed: the overlay entry replaces this record
        }
        entry(kp, d);
      }
      if (i < n) raw_run(recs + i * kDepWireBytes, n - i);
      return;
    }
    const Entries& es = entries();
    size_t j = 0;
    for (const Dep& d : es) {
      const Key k = interner.key_of(d.key_id);
      for (; j < pending_.size(); ++j) {
        const Key kp = interner.key_of(pending_[j].key_id);
        if (kp > k) break;
        entry(kp, pending_[j]);
      }
      entry(k, d);
    }
    for (; j < pending_.size(); ++j) {
      entry(interner.key_of(pending_[j].key_id), pending_[j]);
    }
  }

  template <typename Pred>
  void filter(Pred keep) {
    flush();
    if (raw_) {
      // Raw-level prune: survivors are copied run-wise into a fresh wire
      // image; nothing is parsed or interned.  The all-kept case shares
      // the image untouched.
      const uint8_t* data = raw_.data;
      const size_t n = raw_count();
      size_t first = 0;
      while (first < n) {
        const uint8_t* rec = data + 4 + first * kDepWireBytes;
        if (!keep(raw_u64(rec + kRawKeyOff), parse_raw(rec))) break;
        ++first;
      }
      if (first == n) return;  // nothing dropped: share untouched
      Buffer out;
      out.reserve(raw_.size - kDepWireBytes);
      out.insert(out.end(), data, data + 4 + first * kDepWireBytes);
      uint32_t cnt = static_cast<uint32_t>(first);
      size_t run = first + 1;  // start of the next candidate kept-run
      for (size_t j = run; j <= n; ++j) {
        const uint8_t* rec = data + 4 + j * kDepWireBytes;
        if (j < n && keep(raw_u64(rec + kRawKeyOff), parse_raw(rec))) {
          continue;
        }
        if (j > run) {
          out.insert(out.end(), data + 4 + run * kDepWireBytes, rec);
          cnt += static_cast<uint32_t>(j - run);
        }
        run = j + 1;
      }
      if (cnt == 0) {
        raw_ = RawImage{};
        return;
      }
      std::memcpy(out.data(), &cnt, 4);
      raw_ = RawImage::own(std::move(out));
      return;
    }
    if (!rep_) return;
    if (rep_.use_count() == 1) {
      // Unique node: compact in place, no allocation.
      Entries& es = *rep_;
      es.erase(std::remove_if(
                   es.begin(), es.end(),
                   [&](const Dep& d) { return !keep(key_of(d), d); }),
               es.end());
      return;
    }
    const Entries& es = *rep_;
    size_t kept = 0;
    while (kept < es.size() && keep(key_of(es[kept]), es[kept])) ++kept;
    if (kept == es.size()) return;  // nothing dropped: share untouched
    Entries& s = scratch();
    s.clear();
    s.reserve(es.size() - 1);
    s.insert(s.end(), es.begin(), es.begin() + kept);
    for (size_t i = kept + 1; i < es.size(); ++i) {
      if (keep(key_of(es[i]), es[i])) s.push_back(es[i]);
    }
    rep_ = std::make_shared<Entries>(s);
  }

  // Sorted-by-key entry node, shared copy-on-write between maps.
  mutable std::shared_ptr<Entries> rep_;
  // Canonical wire image (count + sorted records) a decoded map is backed
  // by.  Mutually exclusive with rep_.  Mutations do NOT force parsing:
  // they land in the pending_ overlay (shadowing same-key records), and
  // flush folds the overlay back in at the raw level with bulk copies —
  // so a shipped context that picks up a few requirements per hop stays
  // in wire form for its whole life.
  //
  // The image is an owner + span rather than a whole buffer: a map decoded
  // through a shared-ownership BufReader aliases the records inside the
  // network message it arrived in (zero-copy decode), with `owner` keeping
  // that message's buffer alive.
  struct RawImage {
    std::shared_ptr<const void> owner;
    const uint8_t* data = nullptr;  // the u32 count, records follow
    size_t size = 0;                // 4 + n * kDepWireBytes
    explicit operator bool() const { return data != nullptr; }
    static RawImage own(Buffer b) {
      auto sp = std::make_shared<const Buffer>(std::move(b));
      return RawImage{sp, sp->data(), sp->size()};
    }
  };
  mutable RawImage raw_;
  // Small sorted overlay: keys absent from rep_ (rep-backed maps), or
  // point updates shadowing same-key records (raw-backed maps).
  mutable Entries pending_;
  // Raw-backed only: how many pending_ entries shadow an existing raw
  // record (they replace rather than add on flush).
  mutable uint32_t overlap_ = 0;
};

// Forward-only point queries: seek(k, out) answers lookup(k, out) for a
// non-decreasing sequence of keys, galloping on from the previous position
// in the overlay and in the image (or entry node) instead of searching
// each from scratch.  Walking a key-sorted DepList against a context is
// thus one merge.  Mutations that add or remove keys invalidate it.
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
  size_t base_at_ = 0;  // raw record or entry-node index
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

// Immutable, refcounted stored-dependency list.  One decoded or built list
// is shared by every holder — cache entry, read response, client context —
// instead of being vector-copied at each hop.  Wire format is that of a
// std::vector<StoredDep> (u32 count + entries); the hand codec only adds
// the sharing and the sort.
//
// Entries are in non-decreasing key order (the order commits write them),
// which is what lets validation walk a list against a context as one
// merge (DepMap::Seeker, DepMap::require_all).  An unsorted input is
// stable-sorted on construction, so equal keys keep their relative order.
class DepList {
 public:
  DepList() = default;
  DepList(std::vector<StoredDep> deps)  // NOLINT(google-explicit-constructor)
      : list_(deps.empty() ? nullptr : sorted(std::move(deps))) {}

  size_t size() const { return list_ ? list_->size() : 0; }
  bool empty() const { return size() == 0; }
  const std::vector<StoredDep>& items() const {
    static const std::vector<StoredDep> kEmpty;
    return list_ ? *list_ : kEmpty;
  }
  auto begin() const { return items().begin(); }
  auto end() const { return items().end(); }
  const StoredDep& operator[](size_t i) const { return items()[i]; }

  template <typename W>
  void encode(W& w) const {
    encode_to(w, items());
  }
  static DepList decode(BufReader& r) {
    return DepList(decode_from<std::vector<StoredDep>>(r));
  }

 private:
  static std::shared_ptr<const std::vector<StoredDep>> sorted(
      std::vector<StoredDep> deps) {
    auto by_key = [](const StoredDep& a, const StoredDep& b) {
      return a.key < b.key;
    };
    if (!std::is_sorted(deps.begin(), deps.end(), by_key)) {
      std::stable_sort(deps.begin(), deps.end(), by_key);
    }
    return std::make_shared<const std::vector<StoredDep>>(std::move(deps));
  }

  std::shared_ptr<const std::vector<StoredDep>> list_;
};

// Payload persisted in the eventual store for every HydroCache write:
// the application value plus the dependency list.
struct HydroStored {
  Value value;
  DepList deps;

  static constexpr auto kFields =
      std::tuple{&HydroStored::value, &HydroStored::deps};
};

}  // namespace faastcc::cache
