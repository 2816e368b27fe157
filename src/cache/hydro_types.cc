#include "cache/hydro_types.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace faastcc::cache {
namespace {

// Minimum overlay size at which pending point-inserts are folded into the
// main node.  The effective threshold scales with the node (see
// insert_new): a fixed small threshold on a 10^3-entry context would turn
// an insert burst into O(n^2 / threshold) node rebuilds.
constexpr size_t kPendingFlushThreshold = 48;

// Merge semantics for a key present on both sides, as a mark_read/require
// replay would apply `theirs` onto `mine`: max counter (written_at rides
// with it), sticky read, min level.  Read entries stay pinned at level 0
// (the canonical-form invariant; see require()), which is what makes the
// per-entry combine commutative.
inline void combine(Dep& mine, const Dep& theirs) {
  if (theirs.counter > mine.counter) {
    mine.counter = theirs.counter;
    mine.written_at = theirs.written_at;
    mine.level = theirs.level;
  } else if (theirs.counter == mine.counter) {
    mine.level = std::min(mine.level, theirs.level);
  }
  mine.read = mine.read || theirs.read;
  if (mine.read) mine.level = 0;
}

// An entry arriving on a merge for a key absent on this side: a read
// entry enters as mark_read would record it (level 0).
inline Dep normalized(const Dep& d) {
  Dep out = d;
  if (out.read) out.level = 0;
  return out;
}

// require()'s update of an existing entry: a newer counter replaces the
// version (a read entry's level stays pinned at 0); the same counter keeps
// the minimum level.  The read flag is sticky.  Returns whether `cur`
// changed.
inline bool raise(Dep& cur, uint64_t counter, SimTime written_at,
                  uint8_t level) {
  if (counter > cur.counter) {
    cur.counter = counter;
    cur.written_at = written_at;
    cur.level = cur.read ? 0 : level;
    return true;
  }
  if (counter == cur.counter && !cur.read && level < cur.level) {
    cur.level = level;
    return true;
  }
  return false;
}

// The context level of a stored dependency (see DepMap::require_all).
inline uint8_t context_level(const StoredDep& d) {
  return static_cast<uint8_t>(std::min<int>(d.level + 1, 2));
}

}  // namespace

const DepMap::Entries& DepMap::empty_entries() {
  static const Entries kEmpty;
  return kEmpty;
}

DepMap::Entries& DepMap::scratch() {
  thread_local Entries s;
  return s;
}

DepMap::Loc DepMap::locate(Key k) const {
  const KeyInterner& interner = KeyInterner::instance();
  auto search = [&](const Entries& es, Key key) -> const Dep* {
    auto it = std::lower_bound(
        es.begin(), es.end(), key,
        [&](const Dep& d, Key kk) { return interner.key_of(d.key_id) < kk; });
    if (it != es.end() && interner.key_of(it->key_id) == key) return &*it;
    return nullptr;
  };
  // The overlay first: on a raw-backed map it shadows same-key records.
  if (!pending_.empty()) {
    if (const Dep* d = search(pending_, k)) {
      return Loc{Loc::kPending, static_cast<size_t>(d - pending_.data())};
    }
  }
  if (raw_) {
    // Branchless lower-bound with both possible next probes prefetched —
    // same scheme as lookup(); see the comment there.
    const size_t n = raw_count();
    if (n == 0) return Loc{};
    const uint8_t* base = raw_records();
    const uint8_t* lo = base;
    size_t len = n;
    while (len > 1) {
      const size_t half = len / 2;
      const size_t rest = len - half;
      if (const size_t nh = rest / 2; nh > 0) {
        __builtin_prefetch(lo + (nh - 1) * kDepWireBytes);
        __builtin_prefetch(lo + (half + nh - 1) * kDepWireBytes);
      }
      if (raw_u64(lo + (half - 1) * kDepWireBytes + kRawKeyOff) < k) {
        lo += half * kDepWireBytes;
      }
      len = rest;
    }
    if (raw_u64(lo + kRawKeyOff) == k) {
      return Loc{Loc::kRaw,
                 static_cast<size_t>(lo - base) / kDepWireBytes};
    }
    return Loc{};
  }
  if (rep_ != nullptr) {
    if (const Dep* d = search(*rep_, k)) {
      return Loc{Loc::kRep, static_cast<size_t>(d - rep_->data())};
    }
  }
  return Loc{};
}

Dep& DepMap::mutable_at(Loc loc) {
  if (loc.where == Loc::kPending) return pending_[loc.idx];
  assert(loc.where == Loc::kRep && rep_ != nullptr);
  if (rep_.use_count() > 1) {
    // Shared node: clone before the write (copy-on-write).
    rep_ = std::make_shared<Entries>(*rep_);
  }
  return (*rep_)[loc.idx];
}

void DepMap::insert_new(Dep d, Key k) {
  if (!raw_) {
    // Bulk-build fast path: appending keys in ascending order (decode,
    // session rebuilds) grows the node directly, no overlay involved.
    if (pending_.empty() && rep_ != nullptr && rep_.use_count() == 1 &&
        (rep_->empty() || key_of(rep_->back()) < k)) {
      rep_->push_back(d);
      return;
    }
    if (rep_ == nullptr && pending_.empty()) {
      rep_ = std::make_shared<Entries>();
      rep_->push_back(d);
      return;
    }
  }
  const KeyInterner& interner = KeyInterner::instance();
  auto it = std::lower_bound(
      pending_.begin(), pending_.end(), k,
      [&](const Dep& e, Key kk) { return interner.key_of(e.key_id) < kk; });
  pending_.insert(it, d);
  // Scale the fold threshold with the node: folding is O(node), so a
  // fixed threshold makes an m-insert burst into an n-entry context cost
  // O(m * n / threshold).  Proportional pending keeps it O(m + n) while
  // locate()'s overlay binary search stays a few probes.
  const size_t threshold = std::max(kPendingFlushThreshold, size() / 4);
  if (pending_.size() >= threshold) flush();
}

void DepMap::promote(Dep d, Key k) {
  const KeyInterner& interner = KeyInterner::instance();
  auto it = std::lower_bound(
      pending_.begin(), pending_.end(), k,
      [&](const Dep& e, Key kk) { return interner.key_of(e.key_id) < kk; });
  pending_.insert(it, d);
  ++overlap_;
  const size_t threshold = std::max(kPendingFlushThreshold, size() / 4);
  if (pending_.size() >= threshold) flush();
}

void DepMap::flush_slow() const {
  if (pending_.empty()) return;
  if (raw_) {
    // Raw-level fold: merge the sorted overlay into the wire image with
    // bulk copies of the untouched runs.  The map stays raw-backed —
    // nothing is parsed and nothing is interned, so a long-lived context
    // absorbs its per-hop updates at memcpy speed.
    const KeyInterner& interner = KeyInterner::instance();
    const uint8_t* recs = raw_records();
    const size_t n = raw_count();
    const uint32_t cnt =
        static_cast<uint32_t>(n + pending_.size() - overlap_);
    Buffer buf;
    buf.reserve(4 + static_cast<size_t>(cnt) * kDepWireBytes);
    buf.insert(buf.end(), reinterpret_cast<const uint8_t*>(&cnt),
               reinterpret_cast<const uint8_t*>(&cnt) + 4);
    size_t i = 0;
    for (const Dep& d : pending_) {
      const Key kp = interner.key_of(d.key_id);
      const size_t run = i;
      while (i < n && raw_u64(recs + i * kDepWireBytes + kRawKeyOff) < kp) {
        ++i;
      }
      if (i > run) {
        buf.insert(buf.end(), recs + run * kDepWireBytes,
                   recs + i * kDepWireBytes);
      }
      if (i < n && raw_u64(recs + i * kDepWireBytes + kRawKeyOff) == kp) {
        ++i;  // shadowed: the overlay entry replaces this record
      }
      uint8_t rec[kDepWireBytes];
      store_record(rec, kp, d);
      buf.insert(buf.end(), rec, rec + kDepWireBytes);
    }
    if (i < n) {
      buf.insert(buf.end(), recs + i * kDepWireBytes,
                 recs + n * kDepWireBytes);
    }
    pending_.clear();
    overlap_ = 0;
    raw_ = RawImage::own(std::move(buf));
    return;
  }
  if (rep_ == nullptr || rep_->empty()) {
    if (rep_ != nullptr && rep_.use_count() == 1) {
      rep_->swap(pending_);
    } else {
      rep_ = std::make_shared<Entries>(std::move(pending_));
    }
    pending_.clear();
    return;
  }
  if (rep_.use_count() == 1) {
    // Unique node: merge the overlay in from the back, in place — no
    // allocation beyond vector growth.  Keys are disjoint by the overlay
    // invariant, so the merge is a pure interleave.
    const KeyInterner& interner = KeyInterner::instance();
    auto key = [&](const Dep& d) { return interner.key_of(d.key_id); };
    Entries& a = *rep_;
    const size_t na = a.size();
    size_t j = pending_.size();
    a.resize(na + j);
    size_t i = na;
    size_t out = a.size();
    while (j > 0) {
      if (i > 0 && key(a[i - 1]) > key(pending_[j - 1])) {
        a[--out] = a[--i];
      } else {
        a[--out] = pending_[--j];
      }
    }
    pending_.clear();
    return;
  }
  // Shared node: linear merge of the two sorted runs into the scratch
  // arena, then one exact-sized allocation for the new node.
  const KeyInterner& interner = KeyInterner::instance();
  const Entries& a = *rep_;
  const Entries& b = pending_;
  Entries& s = scratch();
  s.clear();
  s.reserve(a.size() + b.size());
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (interner.key_of(a[i].key_id) < interner.key_of(b[j].key_id)) {
      s.push_back(a[i++]);
    } else {
      s.push_back(b[j++]);
    }
  }
  s.insert(s.end(), a.begin() + i, a.end());
  s.insert(s.end(), b.begin() + j, b.end());
  rep_ = std::make_shared<Entries>(s);
  pending_.clear();
}

void DepMap::materialize_slow() const {
  flush();  // fold any overlay into the wire image first
  if (!raw_) return;
  const uint8_t* p = raw_records();
  const size_t n = raw_count();
  KeyInterner& interner = KeyInterner::instance();
  auto rep = std::make_shared<Entries>();
  rep->reserve(n);
  for (size_t i = 0; i < n; ++i, p += kDepWireBytes) {
    Dep d = parse_raw(p);
    d.key_id = interner.intern(raw_u64(p + kRawKeyOff));
    rep->push_back(d);
  }
  rep_ = std::move(rep);
  raw_ = RawImage{};
}

void DepMap::require(Key k, uint64_t counter, SimTime written_at,
                     uint8_t level) {
  const Loc loc = locate(k);
  if (loc.where == Loc::kNone) {
    insert_new(Dep{counter, written_at, KeyInterner::instance().intern(k),
                   false, level},
               k);
    return;
  }
  // Most requirements re-assert what the context already carries: a
  // no-op leaves the entry (or raw record) untouched.
  Dep cur = at(loc);
  if (!raise(cur, counter, written_at, level)) return;
  if (loc.where == Loc::kRaw) {
    // Raw-backed: the update shadows the record via the overlay.
    cur.key_id = KeyInterner::instance().intern(k);
    promote(cur, k);
  } else {
    mutable_at(loc) = cur;
  }
}

void DepMap::require_all(const DepList& deps) {
  if (deps.empty()) return;
  KeyInterner& interner = KeyInterner::instance();
  const std::vector<StoredDep>& list = deps.items();
  // In-place updates below change no key, so the Seeker stays valid.
  Seeker seeker(*this);
  // Entries the overlay does not hold yet (new keys, and updates shadowing
  // raw records), collected in key order and merged in after the pass.
  Entries& add = scratch();
  add.clear();
  uint32_t shadows = 0;
  for (size_t i = 0; i < list.size();) {
    const Key k = list[i].key;
    const Loc loc = seeker.next(k);
    // Every list entry for k, in list order, as require() would apply it.
    bool changed = loc.where == Loc::kNone;
    Dep cur;
    if (changed) {
      cur = Dep{list[i].counter, list[i].written_at, 0, false,
                context_level(list[i])};
      ++i;
    } else {
      cur = at(loc);
    }
    for (; i < list.size() && list[i].key == k; ++i) {
      changed |= raise(cur, list[i].counter, list[i].written_at,
                       context_level(list[i]));
    }
    if (!changed) continue;
    if (loc.where == Loc::kPending || loc.where == Loc::kRep) {
      mutable_at(loc) = cur;
      continue;
    }
    if (loc.where == Loc::kRaw) ++shadows;
    cur.key_id = interner.intern(k);
    add.push_back(cur);
  }
  if (add.empty()) return;
  // Disjoint sorted runs: interleave from the back, in place.
  const size_t np = pending_.size();
  pending_.resize(np + add.size());
  size_t a = np;
  size_t b = add.size();
  size_t out = pending_.size();
  while (b > 0) {
    if (a > 0 && interner.key_of(pending_[a - 1].key_id) >
                     interner.key_of(add[b - 1].key_id)) {
      pending_[--out] = pending_[--a];
    } else {
      pending_[--out] = add[--b];
    }
  }
  overlap_ += shadows;
  // The fold rule of insert_new/promote, applied once for the batch.
  const size_t threshold = std::max(kPendingFlushThreshold, size() / 4);
  if (pending_.size() >= threshold) flush();
}

void DepMap::mark_read(Key k, uint64_t counter, SimTime written_at) {
  const Loc loc = locate(k);
  if (loc.where == Loc::kNone) {
    insert_new(Dep{counter, written_at, KeyInterner::instance().intern(k),
                   true, 0},
               k);
    return;
  }
  if (loc.where == Loc::kRaw) {
    Dep cur = parse_raw(raw_records() + loc.idx * kDepWireBytes);
    if (counter <= cur.counter && cur.read && cur.level == 0) return;
    if (counter > cur.counter) {
      cur.counter = counter;
      cur.written_at = written_at;
    }
    cur.read = true;
    cur.level = 0;
    cur.key_id = KeyInterner::instance().intern(k);
    promote(cur, k);
    return;
  }
  const Dep& cur = loc.where == Loc::kRep ? (*rep_)[loc.idx] : pending_[loc.idx];
  if (counter <= cur.counter && cur.read && cur.level == 0) return;  // no-op
  Dep& d = mutable_at(loc);
  if (counter > d.counter) {
    d.counter = counter;
    d.written_at = written_at;
  }
  d.read = true;
  d.level = 0;
}

const Dep* DepMap::find(Key k) const {
  Loc loc = locate(k);
  if (loc.where == Loc::kRaw) {
    // A stable entry pointer needs the entry node; cold path — hot-path
    // probes of raw-backed maps go through lookup().
    materialize();
    loc = locate(k);
  }
  switch (loc.where) {
    case Loc::kRep:
      return &(*rep_)[loc.idx];
    case Loc::kPending:
      return &pending_[loc.idx];
    case Loc::kRaw:  // unreachable: materialized above
    case Loc::kNone:
      return nullptr;
  }
  return nullptr;
}

bool DepMap::lookup(Key k, Dep& out) const {
  // The overlay shadows raw records, so it is probed first.
  if (!pending_.empty()) {
    const KeyInterner& interner = KeyInterner::instance();
    auto it = std::lower_bound(
        pending_.begin(), pending_.end(), k,
        [&](const Dep& e, Key kk) { return interner.key_of(e.key_id) < kk; });
    if (it != pending_.end() && interner.key_of(it->key_id) == k) {
      out = *it;
      return true;
    }
  }
  if (raw_) {
    // Branchless lower-bound directly over the fixed-width sorted wire
    // records — no materialization, no interning.  The window-halving form
    // lets both possible next probes be prefetched, overlapping the
    // dependent cache misses that dominate a pointer-chasing search.
    const size_t n = raw_count();
    if (n == 0) return false;
    const uint8_t* lo = raw_records();
    size_t len = n;
    while (len > 1) {
      const size_t half = len / 2;
      const size_t rest = len - half;
      if (const size_t nh = rest / 2; nh > 0) {
        __builtin_prefetch(lo + (nh - 1) * kDepWireBytes);
        __builtin_prefetch(lo + (half + nh - 1) * kDepWireBytes);
      }
      if (raw_u64(lo + (half - 1) * kDepWireBytes + kRawKeyOff) < k) {
        lo += half * kDepWireBytes;
      }
      len = rest;
    }
    if (raw_u64(lo + kRawKeyOff) != k) return false;
    out = parse_raw(lo);
    out.key_id = 0;  // not populated on the raw path; caller has the key
    return true;
  }
  const Dep* d = find(k);
  if (d == nullptr) return false;
  out = *d;
  return true;
}

DepMap::Loc DepMap::Seeker::next(Key k) {
#ifndef NDEBUG
  assert(k >= last_ && "Seeker keys must be non-decreasing");
  last_ = k;
#endif
  const KeyInterner& interner = KeyInterner::instance();
  // The overlay first: on a raw-backed map it shadows same-key records.
  const Entries& pending = m_.pending_;
  if (!pending.empty()) {
    pending_at_ =
        gallop(pending_at_, pending.size(), k, entry_keys(interner, pending));
    if (pending_at_ < pending.size() &&
        interner.key_of(pending[pending_at_].key_id) == k) {
      return Loc{Loc::kPending, pending_at_};
    }
  }
  if (m_.raw_) {
    const size_t n = m_.raw_count();
    base_at_ =
        gallop(base_at_, n, k, [this](size_t i) { return m_.raw_key(i); });
    if (base_at_ < n && m_.raw_key(base_at_) == k) {
      return Loc{Loc::kRaw, base_at_};
    }
    return Loc{};
  }
  if (m_.rep_ == nullptr) return Loc{};
  const Entries& es = *m_.rep_;
  base_at_ = gallop(base_at_, es.size(), k, entry_keys(interner, es));
  if (base_at_ < es.size() && interner.key_of(es[base_at_].key_id) == k) {
    return Loc{Loc::kRep, base_at_};
  }
  return Loc{};
}

void DepMap::merge(const DepMap& other) {
  if (&other == this) return;
  if (other.empty()) return;
  if (empty()) {
    // Structural sharing: adopting the other side's node (entry vector or
    // raw wire image alike) is a refcount bump.  This is the whole-
    // context ship between functions.
    other.flush();
    if (other.raw_) {
      raw_ = other.raw_;
      rep_.reset();
    } else {
      rep_ = other.rep_;
      raw_ = RawImage{};
    }
    pending_.clear();
    overlap_ = 0;
    return;
  }
  flush();
  other.flush();
  if (raw_ && other.raw_ && raw_.data == other.raw_.data) return;
  if (rep_ != nullptr && rep_ == other.rep_) return;
  if (raw_ || other.raw_) {
    // Record-level merge straight into a fresh wire image: neither side
    // is parsed into entries or interned, and the result stays raw-backed
    // (exactly the shape the next hop ships).
    const KeyInterner& interner = KeyInterner::instance();
    struct Cur {
      const uint8_t* p = nullptr;  // raw cursor …
      const uint8_t* pe = nullptr;
      const Dep* d = nullptr;  // … or entry cursor
      const Dep* de = nullptr;
      bool done() const { return p != nullptr ? p == pe : d == de; }
    };
    auto open_cur = [](const DepMap& m) {
      Cur c;
      if (m.raw_) {
        c.p = m.raw_records();
        c.pe = c.p + m.raw_count() * kDepWireBytes;
      } else if (m.rep_ != nullptr) {
        c.d = m.rep_->data();
        c.de = c.d + m.rep_->size();
      }
      return c;
    };
    auto cur_key = [&](const Cur& c) {
      return c.p != nullptr ? raw_u64(c.p + kRawKeyOff)
                            : interner.key_of(c.d->key_id);
    };
    auto cur_dep = [](const Cur& c) {
      return c.p != nullptr ? parse_raw(c.p) : *c.d;
    };
    auto advance = [](Cur& c) {
      if (c.p != nullptr) {
        c.p += kDepWireBytes;
      } else {
        ++c.d;
      }
    };
    Buffer buf;
    buf.reserve(4 + (size() + other.size()) * kDepWireBytes);
    buf.resize(4);  // count patched below
    uint32_t cnt = 0;
    auto append = [&](Key k, const Dep& d) {
      uint8_t rec[kDepWireBytes];
      store_record(rec, k, d);
      buf.insert(buf.end(), rec, rec + kDepWireBytes);
      ++cnt;
    };
    Cur a = open_cur(*this);
    Cur b = open_cur(other);
    while (!a.done() && !b.done()) {
      const Key ka = cur_key(a);
      const Key kb = cur_key(b);
      if (ka < kb) {
        append(ka, cur_dep(a));
        advance(a);
      } else if (kb < ka) {
        append(kb, cur_dep(b));
        advance(b);
      } else {
        Dep d = cur_dep(a);
        combine(d, cur_dep(b));
        append(ka, d);
        advance(a);
        advance(b);
      }
    }
    for (; !a.done(); advance(a)) append(cur_key(a), cur_dep(a));
    for (; !b.done(); advance(b)) append(cur_key(b), cur_dep(b));
    std::memcpy(buf.data(), &cnt, 4);
    raw_ = RawImage::own(std::move(buf));
    rep_.reset();
    return;
  }
  const KeyInterner& interner = KeyInterner::instance();
  const Entries& a = *rep_;
  const Entries& b = *other.rep_;
  Entries& s = scratch();
  s.clear();
  s.reserve(a.size() + b.size());
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const Key ka = interner.key_of(a[i].key_id);
    const Key kb = interner.key_of(b[j].key_id);
    if (ka < kb) {
      s.push_back(a[i++]);
    } else if (kb < ka) {
      s.push_back(normalized(b[j++]));
    } else {
      Dep d = a[i++];
      combine(d, b[j++]);
      s.push_back(d);
    }
  }
  s.insert(s.end(), a.begin() + i, a.end());
  for (; j < b.size(); ++j) s.push_back(normalized(b[j]));
  if (rep_.use_count() == 1) {
    *rep_ = s;  // reuse the unique node's capacity
  } else {
    rep_ = std::make_shared<Entries>(s);
  }
}

void DepMap::gc_before(SimTime horizon) {
  filter([horizon](Key, const Dep& d) {
    return d.read || d.written_at >= horizon;
  });
}

DepMap DepMap::decode(BufReader& r) {
  DepMap m;
  const uint32_t n = r.get_u32();
  if (n == 0) return m;
  const uint8_t* base = r.get_span(static_cast<size_t>(n) * kDepWireBytes);
  // Canonical streams (ours always are) become raw-backed: the map keeps
  // the wire image and defers parsing until something mutates or iterates
  // it.  Sortedness is one sequential key scan.
  bool sorted = true;
  Key prev = raw_u64(base + kRawKeyOff);
  for (uint32_t i = 1; i < n; ++i) {
    const Key k = raw_u64(base + i * kDepWireBytes + kRawKeyOff);
    if (k <= prev) {
      sorted = false;
      break;
    }
    prev = k;
  }
  if (sorted) {
    // The u32 count sits immediately before the records in the source
    // stream, so the whole canonical image is one contiguous range.
    const size_t image_bytes = 4 + static_cast<size_t>(n) * kDepWireBytes;
    if (const auto& owner = r.owner()) {
      // Shared-ownership reader: alias the records inside the message
      // buffer itself — zero-copy decode, the dominant context-transfer
      // cost gone entirely.
      m.raw_ = RawImage{owner, base - 4, image_bytes};
    } else {
      m.raw_ = RawImage::own(Buffer(base - 4, base + image_bytes - 4));
    }
    return m;
  }
  // Defensive: accept any well-formed stream, canonicalizing it.
  KeyInterner& interner = KeyInterner::instance();
  auto rep = std::make_shared<Entries>();
  rep->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    const uint8_t* p = base + i * kDepWireBytes;
    Dep d = parse_raw(p);
    d.key_id = interner.intern(raw_u64(p + kRawKeyOff));
    rep->push_back(d);
  }
  std::sort(rep->begin(), rep->end(), [&](const Dep& x, const Dep& y) {
    return interner.key_of(x.key_id) < interner.key_of(y.key_id);
  });
  m.rep_ = std::move(rep);
  return m;
}

}  // namespace faastcc::cache
