// Property tests for the dependency-metadata engine (cache/hydro_types).
//
// Strategy, following the tcc_properties_test harness style: drive
// randomized operation sequences against both the flat COW `DepMap` and a
// deliberately naive reference model (a `std::map` replaying the
// documented require/mark_read/merge/gc/restrict semantics — effectively
// the pre-rewrite hash-map implementation), then compare observable
// content after every step.  On top of the differential, the algebraic
// laws the merge relies on are checked directly: commutativity,
// associativity, idempotence, and the canonical (sorted, insertion-order
// independent) wire encoding.
//
// One deliberate divergence from the pre-rewrite code is baked into the
// model: a `read` entry's `level` is pinned at 0 (canonical form).  No
// consumer reads a read-entry's level, and the pin is what makes merge
// commutative, so the differential compares `level` only for non-read
// entries.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <tuple>
#include <unordered_set>
#include <vector>

#include "cache/hydro_cache.h"
#include "cache/hydro_types.h"
#include "common/rng.h"

namespace faastcc::cache {
namespace {

// ---------------------------------------------------------------------------
// Reference model.
// ---------------------------------------------------------------------------

struct ModelDep {
  uint64_t counter = 0;
  SimTime written_at = 0;
  bool read = false;
  uint8_t level = 0;
};
using Model = std::map<Key, ModelDep>;

void model_require(Model& m, Key k, uint64_t counter, SimTime written_at,
                   uint8_t level) {
  auto [it, inserted] = m.emplace(k, ModelDep{counter, written_at, false, level});
  if (inserted) return;
  ModelDep& d = it->second;
  if (counter > d.counter) {
    d.counter = counter;
    d.written_at = written_at;
    d.level = d.read ? 0 : level;
  } else if (counter == d.counter && !d.read) {
    d.level = std::min(d.level, level);
  }
}

void model_mark_read(Model& m, Key k, uint64_t counter, SimTime written_at) {
  auto [it, inserted] = m.emplace(k, ModelDep{counter, written_at, true, 0});
  if (inserted) return;
  ModelDep& d = it->second;
  if (counter > d.counter) {
    d.counter = counter;
    d.written_at = written_at;
  }
  d.read = true;
  d.level = 0;
}

void model_merge(Model& a, const Model& b) {
  for (const auto& [k, d] : b) {
    if (d.read) {
      model_mark_read(a, k, d.counter, d.written_at);
    } else {
      model_require(a, k, d.counter, d.written_at, d.level);
    }
  }
}

void model_gc(Model& m, SimTime horizon) {
  for (auto it = m.begin(); it != m.end();) {
    if (!it->second.read && it->second.written_at < horizon) {
      it = m.erase(it);
    } else {
      ++it;
    }
  }
}

void model_restrict(Model& m, const std::unordered_set<Key>& keys) {
  // Post-fix semantics: read markers are never dropped.
  for (auto it = m.begin(); it != m.end();) {
    if (!it->second.read && keys.count(it->first) == 0) {
      it = m.erase(it);
    } else {
      ++it;
    }
  }
}

// Observable equality: counter / written_at / read everywhere, level only
// where the entry is not a read marker (see file comment).
void expect_equivalent(const DepMap& map, const Model& model,
                       const char* what) {
  ASSERT_EQ(map.size(), model.size()) << what;
  for (const auto& [k, d] : model) {
    const Dep* got = map.find(k);
    ASSERT_NE(got, nullptr) << what << " key " << k;
    EXPECT_EQ(got->counter, d.counter) << what << " key " << k;
    EXPECT_EQ(got->written_at, d.written_at) << what << " key " << k;
    EXPECT_EQ(got->read, d.read) << what << " key " << k;
    if (!d.read) EXPECT_EQ(got->level, d.level) << what << " key " << k;
  }
  // And the iteration agrees (also exercises the sorted-order contract).
  Key prev = 0;
  size_t n = 0;
  for (const auto& [k, d] : map) {
    if (n > 0) {
      EXPECT_LT(prev, k) << what << ": iteration not sorted";
    }
    prev = k;
    ++n;
    EXPECT_EQ(model.count(k), 1u) << what << " extra key " << k;
  }
  EXPECT_EQ(n, model.size()) << what;
}

// ---------------------------------------------------------------------------
// Randomized operation sequences.
// ---------------------------------------------------------------------------

constexpr Key kKeySpace = 32;      // tiny: lots of per-key collisions
constexpr uint64_t kMaxCounter = 40;

// written_at is a function of (key, counter): one version, one install
// time — the invariant real data obeys and merge's written_at-rides-with-
// counter rule depends on.
SimTime wa(Key k, uint64_t counter) {
  return static_cast<SimTime>(counter * 100 + k);
}

struct Op {
  enum Kind { kRequire, kMarkRead } kind = kRequire;
  Key key = 0;
  uint64_t counter = 0;
  uint8_t level = 0;
};

Op random_op(Rng& rng) {
  Op op;
  op.kind = rng.next_bool(0.3) ? Op::kMarkRead : Op::kRequire;
  op.key = rng.next_below(kKeySpace);
  op.counter = 1 + rng.next_below(kMaxCounter);
  op.level = static_cast<uint8_t>(rng.next_below(3));
  return op;
}

void apply(DepMap& m, const Op& op) {
  if (op.kind == Op::kMarkRead) {
    m.mark_read(op.key, op.counter, wa(op.key, op.counter));
  } else {
    m.require(op.key, op.counter, wa(op.key, op.counter), op.level);
  }
}

void apply(Model& m, const Op& op) {
  if (op.kind == Op::kMarkRead) {
    model_mark_read(m, op.key, op.counter, wa(op.key, op.counter));
  } else {
    model_require(m, op.key, op.counter, wa(op.key, op.counter), op.level);
  }
}

DepMap build_map(const std::vector<Op>& ops) {
  DepMap m;
  for (const Op& op : ops) apply(m, op);
  return m;
}

Model build_model(const std::vector<Op>& ops) {
  Model m;
  for (const Op& op : ops) apply(m, op);
  return m;
}

std::vector<Op> random_ops(Rng& rng, size_t n) {
  std::vector<Op> ops;
  ops.reserve(n);
  for (size_t i = 0; i < n; ++i) ops.push_back(random_op(rng));
  return ops;
}

Buffer encoded(const DepMap& m) {
  BufWriter w;
  m.encode(w);
  return w.take();
}

void expect_same_content(const DepMap& a, const DepMap& b, const char* what) {
  EXPECT_EQ(encoded(a), encoded(b)) << what;
}

// ---------------------------------------------------------------------------
// Old-vs-new differential over full op sequences (including merge, gc,
// restrict and an encode/decode round trip after every phase).
// ---------------------------------------------------------------------------

class Differential : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Differential, RandomOpSequencesMatchModel) {
  Rng rng(GetParam());
  DepMap map;
  Model model;
  for (int step = 0; step < 400; ++step) {
    const int action = static_cast<int>(rng.next_below(100));
    if (action < 70) {
      const Op op = random_op(rng);
      apply(map, op);
      apply(model, op);
    } else if (action < 80) {
      // Merge a small random second map into both.
      const std::vector<Op> ops = random_ops(rng, rng.next_below(30));
      const DepMap other = build_map(ops);
      const Model other_model = build_model(ops);
      map.merge(other);
      model_merge(model, other_model);
    } else if (action < 88) {
      const SimTime horizon =
          static_cast<SimTime>(rng.next_below(kMaxCounter * 100));
      map.gc_before(horizon);
      model_gc(model, horizon);
    } else if (action < 94) {
      std::unordered_set<Key> keep;
      for (Key k = 0; k < kKeySpace; ++k) {
        if (rng.next_bool(0.5)) keep.insert(k);
      }
      map.restrict_to(keep);
      model_restrict(model, keep);
    } else {
      // Encode/decode round trip must be the identity on content.
      const Buffer b = encoded(map);
      BufReader r(b);
      map = DepMap::decode(r);
    }
    if (step % 20 == 0 || step == 399) {
      expect_equivalent(map, model, "differential");
      if (HasFatalFailure()) return;
    }
  }
  expect_equivalent(map, model, "differential (final)");
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---------------------------------------------------------------------------
// Algebraic laws of merge.
// ---------------------------------------------------------------------------

class MergeLaws : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MergeLaws, Commutative) {
  Rng rng(GetParam());
  const std::vector<Op> oa = random_ops(rng, 60);
  const std::vector<Op> ob = random_ops(rng, 60);
  DepMap ab = build_map(oa);
  ab.merge(build_map(ob));
  DepMap ba = build_map(ob);
  ba.merge(build_map(oa));
  expect_same_content(ab, ba, "merge commutativity");
}

TEST_P(MergeLaws, Associative) {
  Rng rng(GetParam() + 1000);
  const std::vector<Op> oa = random_ops(rng, 40);
  const std::vector<Op> ob = random_ops(rng, 40);
  const std::vector<Op> oc = random_ops(rng, 40);
  DepMap left = build_map(oa);   // (a ∪ b) ∪ c
  left.merge(build_map(ob));
  left.merge(build_map(oc));
  DepMap bc = build_map(ob);     // a ∪ (b ∪ c)
  bc.merge(build_map(oc));
  DepMap right = build_map(oa);
  right.merge(bc);
  expect_same_content(left, right, "merge associativity");
}

TEST_P(MergeLaws, Idempotent) {
  Rng rng(GetParam() + 2000);
  const std::vector<Op> ops = random_ops(rng, 80);
  DepMap m = build_map(ops);
  const Buffer before = encoded(m);
  m.merge(build_map(ops));  // distinct map, same content
  EXPECT_EQ(encoded(m), before) << "merge idempotence";
  DepMap self = build_map(ops);
  self.merge(self);  // aliasing self-merge
  EXPECT_EQ(encoded(self), before) << "self-merge idempotence";
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergeLaws,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u));

// ---------------------------------------------------------------------------
// require / mark_read pointwise semantics.
// ---------------------------------------------------------------------------

TEST(DepMapProperties, RequireKeepsMaxCounterStickyReadMinLevel) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    DepMap m;
    uint64_t max_counter = 0;
    bool read = false;
    uint8_t min_level_at_max = 255;
    const int n = 1 + static_cast<int>(rng.next_below(12));
    for (int i = 0; i < n; ++i) {
      const Op op = random_op(rng);
      Op pinned = op;
      pinned.key = 7;  // single key: pure pointwise semantics
      apply(m, pinned);
      if (pinned.counter > max_counter) {
        max_counter = pinned.counter;
        min_level_at_max = pinned.kind == Op::kMarkRead ? 0 : pinned.level;
      } else if (pinned.counter == max_counter) {
        min_level_at_max = std::min(
            min_level_at_max,
            pinned.kind == Op::kMarkRead ? uint8_t{0} : pinned.level);
      }
      read = read || pinned.kind == Op::kMarkRead;
    }
    const Dep* d = m.find(7);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->counter, max_counter);
    EXPECT_EQ(d->written_at, wa(7, max_counter));
    EXPECT_EQ(d->read, read);
    if (read) {
      EXPECT_EQ(d->level, 0) << "read entries are canonical at level 0";
    } else {
      EXPECT_EQ(d->level, min_level_at_max);
    }
  }
}

TEST(DepMapProperties, GcInvariants) {
  Rng rng(88);
  for (int trial = 0; trial < 50; ++trial) {
    DepMap m = build_map(random_ops(rng, 120));
    const DepMap before = m;  // COW snapshot
    const SimTime horizon =
        static_cast<SimTime>(rng.next_below(kMaxCounter * 100));
    m.gc_before(horizon);
    size_t expected = 0;
    for (const auto& [k, d] : before) {
      const bool survives = d.read || d.written_at >= horizon;
      if (survives) ++expected;
      const Dep* got = m.find(k);
      if (survives) {
        ASSERT_NE(got, nullptr) << "gc dropped a live entry, key " << k;
        EXPECT_EQ(got->counter, d.counter);
      } else {
        EXPECT_EQ(got, nullptr) << "gc kept a dead entry, key " << k;
      }
    }
    EXPECT_EQ(m.size(), expected);
  }
}

TEST(DepMapProperties, RestrictInvariants) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    DepMap m = build_map(random_ops(rng, 120));
    const DepMap before = m;  // COW snapshot
    std::unordered_set<Key> keep;
    for (Key k = 0; k < kKeySpace; ++k) {
      if (rng.next_bool(0.4)) keep.insert(k);
    }
    m.restrict_to(keep);
    for (const auto& [k, d] : before) {
      const Dep* got = m.find(k);
      if (d.read) {
        ASSERT_NE(got, nullptr)
            << "restrict_to dropped a read marker, key " << k;
        EXPECT_TRUE(got->read);
      } else if (keep.count(k) != 0) {
        ASSERT_NE(got, nullptr) << "restrict_to dropped a kept key " << k;
      } else {
        EXPECT_EQ(got, nullptr) << "restrict_to kept a pruned key " << k;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Canonical encoding.
// ---------------------------------------------------------------------------

TEST(DepMapProperties, EncodeIsInsertionOrderIndependent) {
  Rng rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Op> ops = random_ops(rng, 80);
    const DepMap a = build_map(ops);
    // The final content is a pointwise function of the op multiset
    // (max counter, or'd read, min level at max), so any permutation
    // must encode to the same canonical bytes.
    for (size_t i = ops.size(); i > 1; --i) {
      std::swap(ops[i - 1], ops[rng.next_below(i)]);
    }
    const DepMap b = build_map(ops);
    EXPECT_EQ(encoded(a), encoded(b)) << "trial " << trial;
  }
}

TEST(DepMapProperties, EncodeDecodeIsIdentityAndSorted) {
  Rng rng(321);
  for (int trial = 0; trial < 50; ++trial) {
    const DepMap m = build_map(random_ops(rng, 100));
    const Buffer b = encoded(m);
    EXPECT_EQ(b.size(), m.wire_bytes());
    // Wire order is strictly ascending by raw key.
    BufReader scan(b);
    const uint32_t n = scan.get_u32();
    Key prev = 0;
    for (uint32_t i = 0; i < n; ++i) {
      const Key k = scan.get_u64();
      scan.get_u64();
      scan.get_i64();
      scan.get_bool();
      scan.get_u8();
      if (i > 0) {
        EXPECT_LT(prev, k) << "wire not sorted at " << i;
      }
      prev = k;
    }
    EXPECT_TRUE(scan.done());
    BufReader r(b);
    const DepMap back = DepMap::decode(r);
    EXPECT_EQ(encoded(back), b) << "decode∘encode not the identity";
  }
}

// Decode accepts a non-canonical (unsorted) stream and canonicalizes it.
TEST(DepMapProperties, DecodeCanonicalizesUnsortedInput) {
  BufWriter w;
  w.put_u32(3);
  for (Key k : {Key{9}, Key{2}, Key{5}}) {
    w.put_u64(k);
    w.put_u64(k + 1);         // counter
    w.put_i64(static_cast<int64_t>(k * 10));
    w.put_bool(false);
    w.put_u8(1);
  }
  const Buffer b = w.take();
  BufReader r(b);
  const DepMap m = DepMap::decode(r);
  EXPECT_EQ(m.size(), 3u);
  const Buffer canon = encoded(m);
  BufReader scan(canon);
  scan.get_u32();
  EXPECT_EQ(scan.get_u64(), 2u);  // re-encoded in key order
}

// DepList keeps key order: an unsorted list (on construction, or off the
// wire) is stable-sorted, so entries with equal keys keep their order.
TEST(DepMapProperties, DepListDecodeSortsUnsortedInputStably) {
  BufWriter w;
  w.put_u32(4);
  for (const StoredDep& d : {StoredDep{9, 1, 10, 0}, StoredDep{2, 2, 20, 1},
                             StoredDep{9, 3, 30, 1}, StoredDep{5, 4, 40, 0}}) {
    encode_to(w, d);
  }
  const Buffer b = w.take();
  BufReader r(b);
  const DepList list = DepList::decode(r);
  std::vector<std::pair<Key, uint64_t>> got;
  for (const StoredDep& d : list) got.emplace_back(d.key, d.counter);
  const std::vector<std::pair<Key, uint64_t>> want{{2, 2}, {5, 4}, {9, 1},
                                                   {9, 3}};
  EXPECT_EQ(got, want);
}

// encode() and for_each() walk the main representation and the pending
// overlay as one merged stream instead of folding first: the result must
// equal the traversal and encoding of the compacted map, and the overlay
// must still be pending afterwards.  A map decoded through a shared-
// ownership reader aliases the wire buffer, so a fold (which rebuilds the
// image in a buffer of its own) is visible as that buffer losing a holder.
TEST(DepMapProperties, FoldFreeWalkMatchesCompactedMap) {
  using Entry = std::tuple<Key, uint64_t, SimTime, bool, uint8_t>;
  auto traversal = [](const DepMap& m) {
    std::vector<Entry> out;
    m.for_each([&](Key k, const Dep& d) {
      out.emplace_back(k, d.counter, d.written_at, d.read, d.level);
    });
    return out;
  };
  Rng rng(2024);
  for (int trial = 0; trial < 100; ++trial) {
    auto wire =
        std::make_shared<const Buffer>(encoded(build_map(random_ops(rng, 60))));
    DepMap raw = [&wire] {  // raw-backed, aliasing `wire`
      BufReader r(wire);
      return DepMap::decode(r);
    }();
    DepMap rep = build_map(random_ops(rng, 60));  // entry node + overlay
    for (const Op& op : random_ops(rng, rng.next_below(12))) {
      apply(raw, op);
      apply(rep, op);
    }
    // A key the image lacks always lands in the overlay.
    raw.mark_read(kKeySpace + 1, 1, 1);
    ASSERT_EQ(wire.use_count(), 2) << "decode did not alias the wire";
    for (const DepMap* m : {&raw, &rep}) {
      const std::vector<Entry> walked = traversal(*m);
      const Buffer bytes = encoded(*m);
      DepMap folded = *m;
      folded.compact();
      EXPECT_EQ(walked, traversal(folded)) << "trial " << trial;
      EXPECT_EQ(bytes, encoded(folded)) << "trial " << trial;
      EXPECT_EQ(bytes.size(), m->wire_bytes()) << "trial " << trial;
    }
    EXPECT_EQ(wire.use_count(), 2) << "walk folded the overlay";
    raw.compact();
    EXPECT_EQ(wire.use_count(), 1) << "fold probe is blind";
  }
}

// ---------------------------------------------------------------------------
// Sorted-merge validation: Seeker and require_all against their per-key
// definitions, on every map shape.
// ---------------------------------------------------------------------------

// Image keys are drawn from [0, kImageKeys), overlay keys from
// [0, kOverlayKeys) and list keys from [0, kListKeys): a list key can be
// absent, in the image, in the overlay (new or shadowing), or past both.
constexpr Key kImageKeys = 48;
constexpr Key kOverlayKeys = 64;
constexpr Key kListKeys = 72;

std::vector<Op> random_ops_over(Rng& rng, size_t n, Key keys) {
  std::vector<Op> ops = random_ops(rng, n);
  for (Op& op : ops) op.key = rng.next_below(keys);
  return ops;
}

enum class Shape { kRawWithOverlay, kEntryNodeWithOverlay, kEmpty };

// A map of the given shape.  The raw image aliases a shared wire buffer,
// as a context decoded off a request does.
DepMap shaped_map(Rng& rng, Shape shape) {
  if (shape == Shape::kEmpty) return DepMap{};
  DepMap m = build_map(random_ops_over(rng, 40, kImageKeys));
  if (shape == Shape::kRawWithOverlay) {
    auto wire = std::make_shared<const Buffer>(encoded(m));
    BufReader r(wire);
    m = DepMap::decode(r);
  } else {
    m.compact();
  }
  // On either shape, new keys below the largest land in the overlay.
  for (const Op& op : random_ops_over(rng, 1 + rng.next_below(12),
                                      kOverlayKeys)) {
    apply(m, op);
  }
  return m;
}

// A key-sorted stored list with duplicated keys; stored levels 0-2 (the
// context level saturates at 2).
DepList random_list(Rng& rng, size_t n) {
  std::vector<StoredDep> v;
  for (size_t i = 0; i < n; ++i) {
    const bool repeat = !v.empty() && rng.next_bool(0.25);
    const Key k = repeat ? v.back().key : rng.next_below(kListKeys);
    const uint64_t c = 1 + rng.next_below(kMaxCounter);
    v.push_back(StoredDep{k, c, wa(k, c),
                          static_cast<uint8_t>(rng.next_below(3))});
  }
  return DepList(std::move(v));  // stable-sorted by key
}

constexpr Shape kShapes[] = {Shape::kRawWithOverlay,
                             Shape::kEntryNodeWithOverlay, Shape::kEmpty};

TEST(DepMapProperties, SeekerMatchesLookup) {
  Rng rng(4242);
  for (int trial = 0; trial < 300; ++trial) {
    for (Shape shape : kShapes) {
      const DepMap m = shaped_map(rng, shape);
      std::vector<Key> keys;
      for (size_t i = rng.next_below(40); i > 0; --i) {
        keys.push_back(rng.next_below(kListKeys));
        if (rng.next_bool(0.2)) keys.push_back(keys.back());  // repeats
      }
      std::sort(keys.begin(), keys.end());
      DepMap::Seeker seeker(m);
      for (Key k : keys) {
        Dep want;
        Dep got;
        const bool found = m.lookup(k, want);
        ASSERT_EQ(seeker.seek(k, got), found)
            << "trial " << trial << " key " << k;
        if (!found) continue;
        EXPECT_EQ(got.counter, want.counter) << "trial " << trial;
        EXPECT_EQ(got.written_at, want.written_at) << "trial " << trial;
        EXPECT_EQ(got.read, want.read) << "trial " << trial;
        EXPECT_EQ(got.level, want.level) << "trial " << trial;
        EXPECT_EQ(got.key_id, want.key_id) << "trial " << trial;
      }
    }
  }
}

TEST(DepMapProperties, RequireAllMatchesPerKeyRequire) {
  Rng rng(4343);
  for (int trial = 0; trial < 300; ++trial) {
    for (Shape shape : kShapes) {
      const DepMap m = shaped_map(rng, shape);
      const Buffer before = encoded(m);
      // Long lists push the overlay past its fold threshold.
      const DepList list = random_list(rng, rng.next_bool(0.2)
                                                ? 200
                                                : rng.next_below(30));
      DepMap batch = m;  // both copies share m's node
      DepMap per_key = m;
      batch.require_all(list);
      for (const StoredDep& d : list) {
        per_key.require(d.key, d.counter, d.written_at,
                        static_cast<uint8_t>(std::min(d.level + 1, 2)));
      }
      ASSERT_EQ(encoded(batch), encoded(per_key)) << "trial " << trial;
      EXPECT_EQ(batch.size(), per_key.size()) << "trial " << trial;
      EXPECT_EQ(encoded(m), before)
          << "require_all wrote through a shared node";
    }
  }
}

// The check HydroCache ran before it walked candidates with a Seeker:
// one lookup for the key, one per stored dependency.
HydroCache::Fit per_key_check(const DepMap& ctx, Key key, uint64_t counter,
                              const DepList& deps) {
  Dep need;
  if (ctx.lookup(key, need) && counter < need.counter) {
    return HydroCache::Fit::kTooOld;
  }
  for (const StoredDep& d : deps) {
    Dep have;
    if (ctx.lookup(d.key, have) && have.read && have.counter < d.counter) {
      return HydroCache::Fit::kConflict;
    }
  }
  return HydroCache::Fit::kOk;
}

TEST(DepMapProperties, SeekerCheckMatchesPerKeyCheck) {
  Rng rng(4444);
  std::map<HydroCache::Fit, int> verdicts;
  int too_old_and_conflict = 0;
  for (int trial = 0; trial < 600; ++trial) {
    for (Shape shape : kShapes) {
      const DepMap ctx = shaped_map(rng, shape);
      const DepList deps = random_list(rng, rng.next_below(12));
      const Key key = !deps.empty() && rng.next_bool(0.3)
                          ? deps[rng.next_below(deps.size())].key
                          : rng.next_below(kListKeys);
      const uint64_t counter = rng.next_below(kMaxCounter + 1);
      const HydroCache::Fit want = per_key_check(ctx, key, counter, deps);
      EXPECT_EQ(HydroCache::check(ctx, key, counter, deps), want)
          << "trial " << trial << " key " << key;
      ++verdicts[want];
      if (want == HydroCache::Fit::kTooOld &&
          per_key_check(ctx, key, UINT64_MAX, deps) ==
              HydroCache::Fit::kConflict) {
        ++too_old_and_conflict;
      }
    }
  }
  // Every verdict was exercised, and so was a candidate both too old and
  // conflicting (too old must win).
  EXPECT_GT(verdicts[HydroCache::Fit::kOk], 0);
  EXPECT_GT(verdicts[HydroCache::Fit::kTooOld], 0);
  EXPECT_GT(verdicts[HydroCache::Fit::kConflict], 0);
  EXPECT_GT(too_old_and_conflict, 0);
}

// ---------------------------------------------------------------------------
// Copy-on-write sharing: copies are snapshots, mutation never leaks
// through a shared node.
// ---------------------------------------------------------------------------

TEST(DepMapProperties, CowCopiesAreIndependentSnapshots) {
  Rng rng(555);
  DepMap a = build_map(random_ops(rng, 100));
  const Buffer before = encoded(a);
  DepMap b = a;  // shares the node
  b.mark_read(kKeySpace + 5, 9, 1);
  b.require(3, 1000, wa(3, 1000), 2);
  b.gc_before(2000);
  EXPECT_EQ(encoded(a), before) << "mutating a copy leaked into the source";
  DepMap c = a;
  c.merge(b);
  EXPECT_EQ(encoded(a), before) << "merge into a copy leaked into the source";
}

}  // namespace
}  // namespace faastcc::cache
