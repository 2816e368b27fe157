#include "cache/hydro_types.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/shared_block.h"

namespace faastcc::cache {
namespace {

// Minimum overlay size at which pending point-inserts are folded into the
// image.  The effective threshold scales with the map (see fold_if_full):
// a fixed small threshold on a 10^3-entry context would turn an insert
// burst into O(n^2 / threshold) image rebuilds.
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

// mark_read()'s update of an existing entry: a newer counter replaces the
// version, and the entry becomes a level-0 read.  Returns whether `cur`
// changed.
inline bool mark(Dep& cur, uint64_t counter, SimTime written_at) {
  if (counter <= cur.counter && cur.read && cur.level == 0) return false;
  if (counter > cur.counter) {
    cur.counter = counter;
    cur.written_at = written_at;
  }
  cur.read = true;
  cur.level = 0;
  return true;
}

// The context level of a stored dependency (see DepMap::require_all).
inline uint8_t context_level(const StoredDep& d) {
  return static_cast<uint8_t>(std::min<int>(d.level + 1, 2));
}

}  // namespace

DepMap::Loc DepMap::locate(Key k) const {
  // The overlay first: it shadows same-key records.
  if (!pending_.empty()) {
    auto it = std::lower_bound(
        pending_.begin(), pending_.end(), k,
        [](const Entry& e, Key kk) { return e.key < kk; });
    if (it != pending_.end() && it->key == k) {
      return Loc{Loc::kPending, static_cast<size_t>(it - pending_.begin())};
    }
  }
  const size_t n = raw_count();
  if (n == 0) return Loc{};
  // Branchless lower-bound directly over the fixed-width sorted records.
  // The window-halving form lets both possible next probes be prefetched,
  // overlapping the dependent cache misses that dominate the search.
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
  if (raw_u64(lo + kRawKeyOff) != k) return Loc{};
  return Loc{Loc::kRaw, static_cast<size_t>(lo - base) / kDepWireBytes};
}

bool DepMap::lookup(Key k, Dep& out) const {
  const Loc loc = locate(k);
  if (loc.where == Loc::kNone) return false;
  out = at(loc);
  return true;
}

void DepMap::fold_if_full() {
  // Scale the fold threshold with the map: folding is O(n), so a fixed
  // threshold makes an m-insert burst into an n-entry context cost
  // O(m * n / threshold).  Proportional pending keeps it O(m + n) while
  // locate()'s overlay binary search stays a few probes.
  const size_t threshold = std::max(kPendingFlushThreshold, size() / 4);
  if (pending_.size() >= threshold) flush();
}

void DepMap::add_pending(Key k, const Dep& d, bool shadows) {
  auto it = std::lower_bound(
      pending_.begin(), pending_.end(), k,
      [](const Entry& e, Key kk) { return e.key < kk; });
  pending_.insert(it, Entry{k, d});
  overlap_ += shadows ? 1 : 0;
  fold_if_full();
}

void DepMap::flush_slow() const {
  // Fold: the merged walk written into a fresh image, untouched runs of
  // records as bulk copies.
  BufWriter w;
  w.reserve(wire_bytes());
  encode(w);
  raw_ = RawImage::own(w.take());
  pending_.clear();
  overlap_ = 0;
}

template <typename Update>
void DepMap::upsert(Key k, const Dep& fresh, Update&& update) {
  const Loc loc = locate(k);
  if (loc.where == Loc::kNone) {
    add_pending(k, fresh, false);
  } else if (loc.where == Loc::kPending) {
    update(pending_[loc.idx].dep);
  } else if (Dep cur = at(loc); update(cur)) {
    // Most requirements re-assert what the context already carries: a
    // no-op leaves the record untouched; a change shadows it.
    add_pending(k, cur, true);
  }
}

void DepMap::require(Key k, uint64_t counter, SimTime written_at,
                     uint8_t level) {
  upsert(k, Dep{counter, written_at, false, level}, [&](Dep& cur) {
    return raise(cur, counter, written_at, level);
  });
}

void DepMap::mark_read(Key k, uint64_t counter, SimTime written_at) {
  upsert(k, Dep{counter, written_at, true, 0},
         [&](Dep& cur) { return mark(cur, counter, written_at); });
}

void DepMap::require_all(const DepList& deps) {
  if (deps.empty()) return;
  const size_t n = deps.size();
  // In-place updates below change no key, so the Seeker stays valid.
  Seeker seeker(*this);
  // Entries the overlay does not hold yet (new keys, and updates shadowing
  // records), collected in key order and merged in after the pass.
  thread_local std::vector<Entry> add;
  add.clear();
  uint32_t shadows = 0;
  for (size_t i = 0; i < n;) {
    const StoredDep first = deps[i];
    const Key k = first.key;
    const Loc loc = seeker.next(k);
    // Every list entry for k, in list order, as require() would apply it.
    bool changed = loc.where == Loc::kNone;
    Dep cur;
    if (changed) {
      cur = Dep{first.counter, first.written_at, false, context_level(first)};
      ++i;
    } else {
      cur = at(loc);
    }
    for (; i < n; ++i) {
      const StoredDep d = deps[i];
      if (d.key != k) break;
      changed |= raise(cur, d.counter, d.written_at, context_level(d));
    }
    if (!changed) continue;
    if (loc.where == Loc::kPending) {
      pending_[loc.idx].dep = cur;
      continue;
    }
    if (loc.where == Loc::kRaw) ++shadows;
    add.push_back(Entry{k, cur});
  }
  if (add.empty()) return;
  // Disjoint sorted runs: interleave from the back, in place.
  const size_t np = pending_.size();
  pending_.resize(np + add.size());
  size_t a = np;
  size_t b = add.size();
  size_t out = pending_.size();
  while (b > 0) {
    if (a > 0 && pending_[a - 1].key > add[b - 1].key) {
      pending_[--out] = pending_[--a];
    } else {
      pending_[--out] = add[--b];
    }
  }
  overlap_ += shadows;
  fold_if_full();  // the fold rule of a point insert, once for the batch
}

DepMap::Loc DepMap::Seeker::next(Key k) {
#ifndef NDEBUG
  assert(k >= last_ && "Seeker keys must be non-decreasing");
  last_ = k;
#endif
  // The overlay first: it shadows same-key records.
  const std::vector<Entry>& pending = m_.pending_;
  pending_at_ = gallop(pending_at_, pending.size(), k,
                       [&pending](size_t i) { return pending[i].key; });
  if (pending_at_ < pending.size() && pending[pending_at_].key == k) {
    return Loc{Loc::kPending, pending_at_};
  }
  const size_t n = m_.raw_count();
  raw_at_ = gallop(raw_at_, n, k, [this](size_t i) { return m_.raw_key(i); });
  if (raw_at_ < n && m_.raw_key(raw_at_) == k) return Loc{Loc::kRaw, raw_at_};
  return Loc{};
}

void DepMap::merge(const DepMap& other) {
  if (&other == this) return;
  if (other.empty()) return;
  other.flush();
  if (empty()) {
    // Adopting the other side's image is a refcount bump.  This is the
    // whole-context ship between functions.
    raw_ = other.raw_;
    pending_.clear();
    overlap_ = 0;
    return;
  }
  flush();
  if (raw_.data == other.raw_.data) return;
  // Record-level merge straight into a fresh image, sized for the disjoint
  // case: a record present on one side only is copied as it is (it is
  // canonical already).
  Buffer buf(4 + (raw_count() + other.raw_count()) * kDepWireBytes);
  uint8_t* out = buf.data() + 4;
  const uint8_t* a = raw_records();
  const uint8_t* const ae = a + raw_count() * kDepWireBytes;
  const uint8_t* b = other.raw_records();
  const uint8_t* const be = b + other.raw_count() * kDepWireBytes;
  while (a != ae && b != be) {
    const Key ka = raw_u64(a + kRawKeyOff);
    const Key kb = raw_u64(b + kRawKeyOff);
    if (ka < kb) {
      std::memcpy(out, a, kDepWireBytes);
      a += kDepWireBytes;
    } else if (kb < ka) {
      std::memcpy(out, b, kDepWireBytes);
      b += kDepWireBytes;
    } else {
      Dep d = parse_raw(a);
      combine(d, parse_raw(b));
      store_record(out, ka, d);
      a += kDepWireBytes;
      b += kDepWireBytes;
    }
    out += kDepWireBytes;
  }
  std::memcpy(out, a, ae - a);
  out += ae - a;
  std::memcpy(out, b, be - b);
  out += be - b;
  buf.resize(out - buf.data());
  const auto count = static_cast<uint32_t>((buf.size() - 4) / kDepWireBytes);
  std::memcpy(buf.data(), &count, 4);
  raw_ = RawImage::own(std::move(buf));
}

DepMap DepMap::decode(BufReader& r) {
  DepMap m;
  const uint32_t n = r.get_u32();
  if (n == 0) return m;
  const uint8_t* base = r.get_span(static_cast<size_t>(n) * kDepWireBytes);
  for (uint32_t i = 1; i < n; ++i) {
    if (raw_u64(base + i * kDepWireBytes + kRawKeyOff) <=
        raw_u64(base + (i - 1) * kDepWireBytes + kRawKeyOff)) {
      throw CodecError("DepMap: keys not strictly ascending");
    }
  }
  // The u32 count sits immediately before the records in the source
  // stream, so the whole canonical image is one contiguous range.
  const size_t image_bytes = 4 + static_cast<size_t>(n) * kDepWireBytes;
  if (const auto& owner = r.owner()) {
    // Shared-ownership reader: alias the records inside the message
    // buffer itself — zero-copy decode.
    m.raw_ = RawImage{owner, base - 4, image_bytes};
  } else {
    m.raw_ = RawImage::own(Buffer(base - 4, base - 4 + image_bytes));
  }
  return m;
}

DepList::DepList(std::vector<StoredDep> deps) {
  auto by_key = [](const StoredDep& a, const StoredDep& b) {
    return a.key < b.key;
  };
  if (!std::is_sorted(deps.begin(), deps.end(), by_key)) {
    std::stable_sort(deps.begin(), deps.end(), by_key);
  }
  // Laid out in a reused buffer, then looked up in the table.
  thread_local std::string image;
  image.resize(deps.size() * kStoredDepWireBytes);
  char* p = image.data();
  for (const StoredDep& d : deps) {
    std::memcpy(p, &d.key, 8);
    std::memcpy(p + 8, &d.counter, 8);
    std::memcpy(p + 16, &d.written_at, 8);
    p[24] = static_cast<char>(d.level);
    p += kStoredDepWireBytes;
  }
  records_ = shared_block(image);
}

DepList DepList::decode(BufReader& r) {
  const size_t n = r.get_count(kStoredDepWireBytes);
  const auto* bytes =
      reinterpret_cast<const char*>(r.get_span(n * kStoredDepWireBytes));
  auto at = [bytes](size_t i) {
    return parse(bytes + i * kStoredDepWireBytes);
  };
  for (size_t i = 1; i < n; ++i) {
    if (at(i).key < at(i - 1).key) {  // unsorted: stable-sort a copy
      std::vector<StoredDep> deps(n);
      for (size_t j = 0; j < n; ++j) deps[j] = at(j);
      return DepList(std::move(deps));
    }
  }
  DepList out;
  out.records_ =
      shared_block(std::string_view(bytes, n * kStoredDepWireBytes));
  return out;
}

}  // namespace faastcc::cache
