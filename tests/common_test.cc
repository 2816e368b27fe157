// Unit tests for the common module: timestamps, HLC, codec, RNG, Zipf,
// statistics, values, the keyed slab table and the FIFO window.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <list>
#include <new>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/fifo_window.h"
#include "common/hlc.h"
#include "common/key_table.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "common/zipf.h"

// ---- counting allocator ---------------------------------------------------
// The Value tests count global allocations; every other operator new form
// forwards to this one.
namespace {
uint64_t g_allocs = 0;
}  // namespace

// Out of line, so GCC sees operator new/delete pairs rather than malloc and
// free inlined into a Value destructor, where -Wuse-after-free cannot
// follow the shared count.
[[gnu::noinline]] void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace faastcc {
namespace {

// ---------------------------------------------------------------------------
// Timestamp
// ---------------------------------------------------------------------------

TEST(Timestamp, PacksAndUnpacksFields) {
  const Timestamp t(123456, 7, 42);
  EXPECT_EQ(t.physical_us(), 123456u);
  EXPECT_EQ(t.logical(), 7u);
  EXPECT_EQ(t.node(), 42u);
}

TEST(Timestamp, OrderedByPhysicalFirst) {
  EXPECT_LT(Timestamp(100, 500, 900), Timestamp(101, 0, 0));
}

TEST(Timestamp, OrderedByLogicalWithinSamePhysical) {
  EXPECT_LT(Timestamp(100, 3, 900), Timestamp(100, 4, 0));
}

TEST(Timestamp, OrderedByNodeAsTieBreak) {
  EXPECT_LT(Timestamp(100, 3, 1), Timestamp(100, 3, 2));
}

TEST(Timestamp, MinMaxAreExtremes) {
  EXPECT_LT(Timestamp::min(), Timestamp(0, 0, 1));
  EXPECT_GT(Timestamp::max(), Timestamp((1ull << 40), 4095, 1023));
}

TEST(Timestamp, PrevNextAreAdjacent) {
  const Timestamp t(5, 5, 5);
  EXPECT_LT(t.prev(), t);
  EXPECT_GT(t.next(), t);
  EXPECT_EQ(t.prev().next(), t);
  EXPECT_EQ(t.next().raw(), t.raw() + 1);
}

TEST(Timestamp, MaxFieldValuesDoNotOverflowNeighbors) {
  const Timestamp t(77, Timestamp::kMaxLogical, Timestamp::kMaxNode);
  EXPECT_EQ(t.physical_us(), 77u);
  EXPECT_EQ(t.logical(), Timestamp::kMaxLogical);
  EXPECT_EQ(t.node(), Timestamp::kMaxNode);
}

// ---------------------------------------------------------------------------
// HlcClock
// ---------------------------------------------------------------------------

TEST(HlcClock, TickIsStrictlyMonotone) {
  HlcClock c(3);
  Timestamp prev = c.tick(100);
  for (int i = 0; i < 100; ++i) {
    const Timestamp t = c.tick(100);  // physical time frozen
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(HlcClock, TickTracksAdvancingPhysicalTime) {
  HlcClock c(3);
  const Timestamp a = c.tick(100);
  const Timestamp b = c.tick(200);
  EXPECT_EQ(a.physical_us(), 100u);
  EXPECT_EQ(b.physical_us(), 200u);
  EXPECT_EQ(b.logical(), 0u);
}

TEST(HlcClock, UpdateMovesAheadOfRemote) {
  HlcClock c(3);
  c.tick(100);
  const Timestamp remote(500, 9, 7);
  const Timestamp t = c.update(remote, 100);
  EXPECT_GT(t, remote);
  EXPECT_EQ(t.node(), 3u);
}

TEST(HlcClock, UpdateRespectsHappenedBefore) {
  // Classic HLC exchange: every message receipt produces a timestamp above
  // both the sender's and the receiver's previous ones.
  HlcClock a(1);
  HlcClock b(2);
  Timestamp last_a = a.tick(10);
  Timestamp last_b = b.update(last_a, 5);  // b's physical clock lags
  EXPECT_GT(last_b, last_a);
  Timestamp next_a = a.update(last_b, 12);
  EXPECT_GT(next_a, last_b);
}

TEST(HlcClock, LogicalOverflowBorrowsPhysicalTime) {
  HlcClock c(1);
  Timestamp t = c.tick(50);
  for (uint64_t i = 0; i <= Timestamp::kMaxLogical + 2; ++i) {
    const Timestamp n = c.tick(50);
    EXPECT_GT(n, t);
    t = n;
  }
  EXPECT_GT(t.physical_us(), 50u);
}

TEST(HlcClock, BoundedDriftWithoutRemoteInfluence) {
  HlcClock c(1);
  for (int i = 0; i < 1000; ++i) c.tick(1000);
  // Frozen physical time: drift is bounded by the logical bits borrowing.
  EXPECT_LE(c.current().physical_us(), 1001u);
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(Codec, RoundTripsScalars) {
  BufWriter w;
  w.put_u8(0xAB);
  w.put_u16(0xCDEF);
  w.put_u32(0xDEADBEEF);
  w.put_u64(0x0123456789ABCDEFull);
  w.put_i64(-42);
  w.put_f64(3.25);
  w.put_bool(true);
  const Buffer b = w.take();

  BufReader r(b);
  EXPECT_EQ(r.get_u8(), 0xAB);
  EXPECT_EQ(r.get_u16(), 0xCDEF);
  EXPECT_EQ(r.get_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.get_i64(), -42);
  EXPECT_DOUBLE_EQ(r.get_f64(), 3.25);
  EXPECT_TRUE(r.get_bool());
  EXPECT_TRUE(r.done());
}

TEST(Codec, RoundTripsStrings) {
  BufWriter w;
  w.put_bytes("");
  w.put_bytes("hello");
  w.put_bytes(std::string(10000, 'x'));
  const Buffer b = w.take();
  BufReader r(b);
  EXPECT_EQ(r.get_bytes(), "");
  EXPECT_EQ(r.get_bytes(), "hello");
  EXPECT_EQ(r.get_bytes().size(), 10000u);
}

TEST(Codec, UnderflowThrows) {
  BufWriter w;
  w.put_u32(7);
  const Buffer b = w.take();
  BufReader r(b);
  r.get_u32();
  EXPECT_THROW(r.get_u64(), CodecError);
}

TEST(Codec, TruncatedStringThrows) {
  BufWriter w;
  w.put_u32(1000);  // length prefix with no payload behind it
  const Buffer b = w.take();
  BufReader r(b);
  EXPECT_THROW(r.get_bytes(), CodecError);
}

TEST(Codec, SizesAreExact) {
  BufWriter w;
  w.put_u64(1);
  w.put_u64(2);
  EXPECT_EQ(w.size(), 16u);  // the snapshot-interval wire size (Fig. 5)
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng r(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[r.next_below(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 100);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(5);
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

// ---------------------------------------------------------------------------
// Zipf
// ---------------------------------------------------------------------------

TEST(Zipf, PmfSumsToOne) {
  ZipfSampler z(1000, 1.0);
  double sum = 0;
  for (uint64_t i = 0; i < 1000; ++i) sum += z.pmf(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, RankZeroIsMostLikely) {
  ZipfSampler z(1000, 1.2);
  EXPECT_GT(z.pmf(0), z.pmf(1));
  EXPECT_GT(z.pmf(1), z.pmf(10));
  EXPECT_GT(z.pmf(10), z.pmf(999));
}

TEST(Zipf, ThetaZeroIsUniform) {
  ZipfSampler z(100, 0.0);
  for (uint64_t i = 0; i < 100; ++i) {
    EXPECT_NEAR(z.pmf(i), 0.01, 1e-9);
  }
}

TEST(Zipf, SamplesMatchPmf) {
  ZipfSampler z(100, 1.0);
  Rng r(17);
  std::vector<int> counts(100, 0);
  const int n = 200000;
  for (int i = 0; i < n; ++i) ++counts[z.sample(r)];
  for (uint64_t k : {0u, 1u, 5u, 50u}) {
    EXPECT_NEAR(static_cast<double>(counts[k]) / n, z.pmf(k),
                5 * std::sqrt(z.pmf(k) / n) + 1e-3);
  }
}

TEST(Zipf, HigherThetaIsMoreSkewed) {
  ZipfSampler low(1000, 1.0), high(1000, 1.5);
  EXPECT_GT(high.pmf(0), low.pmf(0));
}

TEST(Zipf, SamplesStayInRange) {
  ZipfSampler z(10, 1.5);
  Rng r(23);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(z.sample(r), 10u);
  }
}

// Copies are handles over one immutable table: a cluster builds the table
// once and every client's generator shares it, drawing exactly what a
// private table would.
TEST(Zipf, CopiesShareOneTableAndDrawIdenticalRanks) {
  const ZipfSampler own(100000, 1.0);
  const ZipfSampler shared = own;
  EXPECT_EQ(own.cdf().data(), shared.cdf().data());
  const ZipfSampler rebuilt(100000, 1.0);
  EXPECT_NE(own.cdf().data(), rebuilt.cdf().data());
  Rng a(5), b(5), c(5);
  for (int i = 0; i < 20000; ++i) {
    const Key k = own.sample(a);
    ASSERT_EQ(shared.sample(b), k);
    ASSERT_EQ(rebuilt.sample(c), k);
  }
}

// The guide table must not change a single draw: rank_of(u) is the rank
// std::upper_bound over the whole CDF returns, for every u.
class ZipfGuide : public ::testing::TestWithParam<double> {};

Key reference_rank(const ZipfSampler& z, double u) {
  const auto& cdf = z.cdf();
  const auto idx = static_cast<uint64_t>(
      std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  return idx < z.num_keys() ? idx : z.num_keys() - 1;
}

TEST_P(ZipfGuide, MatchesUpperBoundOnDenseGrid) {
  for (uint64_t n : {1u, 7u, 100u, 20000u}) {
    const ZipfSampler z(n, GetParam());
    const int steps = 1 << 18;
    for (int i = 0; i < steps; ++i) {
      const double u = static_cast<double>(i) / steps;
      ASSERT_EQ(z.rank_of(u), reference_rank(z, u)) << "n=" << n << " u=" << u;
    }
  }
}

TEST_P(ZipfGuide, MatchesUpperBoundAtEveryCdfBoundary) {
  for (uint64_t n : {7u, 100u, 20000u}) {
    const ZipfSampler z(n, GetParam());
    const size_t buckets = std::max<uint64_t>(1, n / 8);
    std::vector<double> us;
    for (double c : z.cdf()) us.push_back(c);
    // Bucket edges too: u * buckets may round across them.
    for (size_t b = 0; b <= buckets; ++b) {
      us.push_back(static_cast<double>(b) / static_cast<double>(buckets));
    }
    for (double edge : us) {
      for (double u : {std::nextafter(edge, 0.0), edge,
                       std::nextafter(edge, 2.0)}) {
        if (u < 0.0 || u >= 1.0) continue;
        ASSERT_EQ(z.rank_of(u), reference_rank(z, u))
            << "n=" << n << " u=" << u;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfGuide,
                         ::testing::Values(0.0, 0.6, 1.0, 1.4));

// ---------------------------------------------------------------------------
// KeyTable
// ---------------------------------------------------------------------------

// The table against the structures it replaced: an unordered_map for the
// values and a std::list (front = most recent) for the LRU order.
class KeyTableReference : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KeyTableReference, MatchesUnorderedMapAndListLru) {
  Rng rng(GetParam());
  KeyTable<uint64_t> table;
  std::unordered_map<Key, uint64_t> ref;
  std::list<Key> ref_lru;
  const auto ref_touch = [&](Key k) {
    ref_lru.remove(k);
    ref_lru.push_front(k);
  };
  std::vector<Key> victims;
  std::vector<Key> ref_victims;
  // A key space a few times the capacity so inserts, hits and evictions
  // all happen; the capacity walks up (growth) and back down.
  const Key key_space = 2000;
  size_t capacity = 64;
  for (int step = 0; step < 40000; ++step) {
    // Spread keys over the 64-bit range on some steps, dense on others.
    Key k = rng.next_u64() % key_space;
    if (rng.next_u64() % 4 == 0) k *= 0x9E3779B97F4A7C15ull;
    switch (rng.next_u64() % 6) {
      case 0:
      case 1: {  // insert (no-op on a present key)
        const uint64_t v = rng.next_u64();
        const auto [got, inserted] = table.try_emplace(k, v);
        const bool ref_inserted = ref.emplace(k, v).second;
        ASSERT_EQ(inserted, ref_inserted);
        ASSERT_EQ(*got, ref.at(k));
        if (ref_inserted) ref_lru.push_front(k);
        break;
      }
      case 2:  // touch
        table.touch(k);
        if (ref.count(k) != 0) ref_touch(k);
        break;
      case 3:  // erase
        ASSERT_EQ(table.erase(k), ref.erase(k) != 0);
        ref_lru.remove(k);
        break;
      case 4: {  // evict to capacity
        while (table.size() > capacity) {
          const Key v = *table.least_recent();
          victims.push_back(v);
          table.erase(v);
        }
        while (ref.size() > capacity) {
          ref_victims.push_back(ref_lru.back());
          ref.erase(ref_lru.back());
          ref_lru.pop_back();
        }
        break;
      }
      default:  // update in place
        if (uint64_t* v = table.find(k)) {
          *v += 1;
          ref.at(k) += 1;
        }
        break;
    }
    if (step % 5000 == 4999) capacity = capacity == 64 ? 1500 : 64;
    ASSERT_EQ(table.size(), ref.size());
    ASSERT_EQ(table.contains(k), ref.count(k) != 0);
    const uint64_t* got = table.find(k);
    ASSERT_EQ(got != nullptr, ref.count(k) != 0);
    if (got != nullptr) {
      ASSERT_EQ(*got, ref.at(k));
    }
    ASSERT_EQ(table.least_recent().has_value(), !ref_lru.empty());
    if (!ref_lru.empty()) {
      ASSERT_EQ(*table.least_recent(), ref_lru.back());
    }
  }
  EXPECT_EQ(victims, ref_victims);
  EXPECT_GT(victims.size(), 1000u);
  // Every key findable, and for_each visits exactly the reference contents.
  std::unordered_map<Key, uint64_t> seen;
  table.for_each([&](Key k, uint64_t v) { seen.emplace(k, v); });
  EXPECT_EQ(seen, ref);
  // Draining by recency yields the reference LRU order, oldest first.
  while (!table.empty()) {
    ASSERT_EQ(*table.least_recent(), ref_lru.back());
    table.erase(ref_lru.back());
    ref_lru.pop_back();
  }
  EXPECT_FALSE(table.least_recent().has_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyTableReference,
                         ::testing::Values(1, 2, 3, 4));

TEST(KeyTable, GrowthKeepsEveryKeyAndOrder) {
  KeyTable<Key> table;
  const Key n = 100000;
  for (Key k = 0; k < n; ++k) ASSERT_TRUE(table.try_emplace(k, k * 3).second);
  EXPECT_EQ(table.size(), n);
  for (Key k = 0; k < n; ++k) ASSERT_EQ(*table.find(k), k * 3);
  EXPECT_EQ(table.find(n), nullptr);
  // Insertion order is recency order: key 0 is the least recent.
  EXPECT_EQ(*table.least_recent(), 0u);
  table.touch(0);
  EXPECT_EQ(*table.least_recent(), 1u);
}

TEST(KeyTable, ReserveSizesForAPrewarmWithoutMovingSlots) {
  KeyTable<Key> table;
  ASSERT_TRUE(table.try_emplace(0, 0).second);
  const Key n = 100000;
  table.reserve(n);  // on a non-empty table: the entry is rehashed, kept
  const Key* first = table.find(0);
  ASSERT_NE(first, nullptr);
  for (Key k = 1; k < n; ++k) ASSERT_TRUE(table.try_emplace(k, k * 3).second);
  // Nothing grew: the slot holding key 0 never moved.
  EXPECT_EQ(table.find(0), first);
  for (Key k = 0; k < n; ++k) ASSERT_EQ(*table.find(k), k * 3);
  EXPECT_EQ(*table.least_recent(), 0u);
  table.reserve(10);  // never shrinks
  EXPECT_EQ(table.find(0), first);
  EXPECT_EQ(table.size(), n);
}

// ---------------------------------------------------------------------------
// Value
// ---------------------------------------------------------------------------

TEST(Value, CopyAliasesTheBytesAndMoveEmptiesTheSource) {
  Value a("a payload longer than any small-string buffer");
  const Value b = a;
  EXPECT_EQ(a.data(), b.data());
  EXPECT_EQ(a, b);
  Value c = std::move(a);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(c.data(), b.data());
  Value d;
  d = std::move(c);
  EXPECT_TRUE(c.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(d.data(), b.data());
}

TEST(Value, SelfAssignmentAndSelfMoveKeepTheValue) {
  Value v("payload");
  const char* bytes = v.data();
  Value& alias = v;
  v = alias;
  EXPECT_EQ(v.data(), bytes);
  EXPECT_EQ(v, "payload");
  v = std::move(alias);
  EXPECT_EQ(v.data(), bytes);
  EXPECT_EQ(v, "payload");
}

TEST(Value, EmptyValuesAllocateNothing) {
  const uint64_t before = g_allocs;
  const Value a;
  const Value b("");
  const Value c(std::string_view{});
  const Value d(0, 'x');
  Value e = a;
  e = b;
  EXPECT_EQ(g_allocs, before);
  EXPECT_TRUE(a.empty() && b.empty() && c.empty() && d.empty() && e.empty());
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(a, b);
}

TEST(Value, OneAllocationPerValueAndNoneToCopy) {
  uint64_t before = g_allocs;
  const Value v(8, 'x');
  EXPECT_EQ(g_allocs, before + 1);
  EXPECT_EQ(v, "xxxxxxxx");

  before = g_allocs;
  const Value copy = v;
  EXPECT_EQ(g_allocs, before);

  // Decoding builds the value straight from the wire bytes: one block,
  // whatever the size (a std::string temporary would add a second one
  // above its small-string size).
  for (const size_t n : {size_t{8}, size_t{200}}) {
    BufWriter w;
    w.put_bytes(std::string(n, 'y'));
    const Buffer buf = w.take();
    BufReader r(buf);
    before = g_allocs;
    const Value d = decode_from<Value>(r);
    EXPECT_EQ(g_allocs, before + 1) << n << "-byte value";
    EXPECT_EQ(d.size(), n);
    EXPECT_EQ(d[n - 1], 'y');
  }
}

TEST(Value, ReadSurfaceMatchesTheBytes) {
  const std::string s = "abc def";
  const Value v(s);
  EXPECT_EQ(v.size(), s.size());
  EXPECT_EQ(v.view(), s);
  EXPECT_EQ(std::string(v.begin(), v.end()), s);
  EXPECT_EQ(v[4], 'd');
  EXPECT_EQ(v, s);
  EXPECT_FALSE(v == Value("abc"));
  EXPECT_EQ(Value(std::string_view("xy")), Value("xy"));
  std::ostringstream os;
  os << Value("printed");
  EXPECT_EQ(os.str(), "printed");
}

TEST(Value, SizeAboveFourGibibytesThrows) {
  // The size is checked before the block is allocated, so nothing near
  // 4 GiB is ever requested.
  EXPECT_THROW(Value(size_t{1} << 32, 'x'), std::length_error);
}

// ---------------------------------------------------------------------------
// FifoWindow
// ---------------------------------------------------------------------------

// A (txn, fn) pair hashed as the compute nodes hash theirs, so distinct
// keys can share one hash: (t, f + 1000003) and (t + 1, f) collide.
struct PairKey {
  uint64_t txn;
  uint64_t fn;
  bool operator==(const PairKey&) const = default;
};
struct PairKeyHash {
  size_t operator()(const PairKey& k) const { return k.txn * 1000003 + k.fn; }
};
struct PairKeyStdHash {
  size_t operator()(const PairKey& k) const {
    return std::hash<uint64_t>()(k.txn) * 31 + k.fn;
  }
};

// The window against the structures it replaced: an unordered_map for the
// values and a deque of keys in insertion order.
class FifoWindowReference : public ::testing::TestWithParam<size_t> {};

TEST_P(FifoWindowReference, MatchesUnorderedMapAndDeque) {
  const size_t cap = GetParam();
  Rng rng(cap + 17);
  FifoWindow<PairKey, uint64_t, PairKeyHash> window(cap);
  std::unordered_map<PairKey, uint64_t, PairKeyStdHash> ref;
  std::deque<PairKey> ref_order;
  // A key space a few times the capacity; a quarter of the draws pick
  // the colliding partner of a small key.
  const uint64_t key_space = 3 * cap + 8;
  size_t collisions_inserted = 0;
  for (int step = 0; step < 20000; ++step) {
    PairKey k{rng.next_u64() % key_space, rng.next_u64() % 3};
    if (rng.next_u64() % 4 == 0) {
      k = PairKey{k.txn + 1, k.fn + 1000003};
      ++collisions_inserted;
    }
    const uint64_t v = rng.next_u64();
    switch (rng.next_u64() % 3) {
      case 0: {  // insert; a present key keeps its value and place
        uint64_t* got = window.insert(k, v);
        if (cap == 0) {
          ASSERT_EQ(got, nullptr);
          break;
        }
        if (ref.emplace(k, v).second) {
          ref_order.push_back(k);
          if (ref_order.size() > cap) {
            ref.erase(ref_order.front());
            ref_order.pop_front();
          }
        }
        ASSERT_NE(got, nullptr);
        ASSERT_EQ(*got, ref.at(k));
        break;
      }
      case 1: {  // insert-or-update, as the resolved window does
        uint64_t* got = window.insert(k, v);
        if (cap == 0) break;
        *got = v;
        if (ref.emplace(k, v).second) {
          ref_order.push_back(k);
          if (ref_order.size() > cap) {
            ref.erase(ref_order.front());
            ref_order.pop_front();
          }
        } else {
          ref.at(k) = v;
        }
        break;
      }
      default:  // lookup only
        break;
    }
    ASSERT_EQ(window.size(), ref.size());
    ASSERT_EQ(window.contains(k), ref.count(k) != 0);
    const uint64_t* got = window.find(k);
    ASSERT_EQ(got != nullptr, ref.count(k) != 0);
    if (got != nullptr) {
      ASSERT_EQ(*got, ref.at(k));
    }
    if (step % 997 == 0 || step == 19999) {
      std::vector<PairKey> order;
      window.for_each([&](const PairKey& key, uint64_t value) {
        order.push_back(key);
        ASSERT_EQ(value, ref.at(key));
      });
      ASSERT_EQ(order, std::vector<PairKey>(ref_order.begin(), ref_order.end()));
    }
  }
  EXPECT_LE(window.size(), cap);
  EXPECT_GT(collisions_inserted, 1000u);
  // Every remembered key is still findable through its colliding runs.
  for (const auto& [key, value] : ref) ASSERT_EQ(*window.find(key), value);
}

INSTANTIATE_TEST_SUITE_P(Caps, FifoWindowReference,
                         ::testing::Values(0, 1, 2, 7, 64, 1000));

TEST(FifoWindow, ForEachIsOldestFirstAfterSeveralWraps) {
  FifoWindow<TxnId> window(5);
  for (TxnId t = 0; t < 23; ++t) window.insert(t);  // four wraps and a bit
  std::vector<TxnId> order;
  window.for_each([&](TxnId t, NoValue) { order.push_back(t); });
  EXPECT_EQ(order, (std::vector<TxnId>{18, 19, 20, 21, 22}));
  EXPECT_FALSE(window.contains(17));
}

TEST(FifoWindow, ReinsertingAPresentKeyKeepsItsPlace) {
  FifoWindow<TxnId, uint64_t> window(3);
  window.insert(1, 10);
  window.insert(2, 20);
  window.insert(3, 30);
  *window.insert(1, 11) = 12;  // present: existing entry returned, updated
  EXPECT_EQ(*window.find(1), 12u);
  window.insert(4, 40);  // evicts 1, the oldest, despite its update
  EXPECT_FALSE(window.contains(1));
  EXPECT_TRUE(window.contains(2));
  std::vector<TxnId> order;
  window.for_each([&](TxnId t, uint64_t) { order.push_back(t); });
  EXPECT_EQ(order, (std::vector<TxnId>{2, 3, 4}));
}

TEST(FifoWindow, CapacityZeroRemembersNothing) {
  FifoWindow<TxnId> window(0);
  EXPECT_EQ(window.insert(7), nullptr);
  EXPECT_FALSE(window.contains(7));
  EXPECT_EQ(window.size(), 0u);
}

// ---------------------------------------------------------------------------
// Samples
// ---------------------------------------------------------------------------

TEST(Samples, EmptyIsZero) {
  Samples s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Samples, ExactPercentilesOnKnownData) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.p99(), 99.01, 1e-9);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
}

TEST(Samples, SingleElement) {
  Samples s;
  s.add(7.5);
  EXPECT_DOUBLE_EQ(s.median(), 7.5);
  EXPECT_DOUBLE_EQ(s.p99(), 7.5);
  EXPECT_DOUBLE_EQ(s.mean(), 7.5);
}

TEST(Samples, MeanMinMaxSum) {
  Samples s;
  s.add(1);
  s.add(2);
  s.add(6);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_DOUBLE_EQ(s.sum(), 9.0);
}

TEST(Samples, MergeCombines) {
  Samples a, b;
  a.add(1);
  b.add(3);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(Samples, PercentileIsOrderInsensitive) {
  Samples a, b;
  std::vector<double> values{9, 1, 5, 3, 7};
  for (double v : values) a.add(v);
  std::sort(values.begin(), values.end());
  for (double v : values) b.add(v);
  EXPECT_DOUBLE_EQ(a.median(), b.median());
}

// Parameterized sweep: percentile() agrees with a naive sorted
// implementation for many (size, percentile) combinations.
class PercentileSweep : public ::testing::TestWithParam<int> {};

TEST_P(PercentileSweep, MatchesNaiveImplementation) {
  const int n = GetParam();
  Rng r(static_cast<uint64_t>(n) * 31 + 7);
  Samples s;
  std::vector<double> values;
  for (int i = 0; i < n; ++i) {
    const double v = r.next_double() * 1000;
    s.add(v);
    values.push_back(v);
  }
  std::sort(values.begin(), values.end());
  for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0}) {
    const double rank = (p / 100.0) * (n - 1);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = static_cast<size_t>(std::ceil(rank));
    const double expected =
        values[lo] + (values[hi] - values[lo]) * (rank - lo);
    EXPECT_NEAR(s.percentile(p), expected, 1e-9) << "n=" << n << " p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PercentileSweep,
                         ::testing::Values(1, 2, 3, 10, 101, 1000));

}  // namespace
}  // namespace faastcc
