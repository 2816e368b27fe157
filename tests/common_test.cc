// Unit tests for the common module: timestamps, HLC, codec, RNG, Zipf,
// statistics, the keyed slab table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <list>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/hlc.h"
#include "common/key_table.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "common/zipf.h"

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

TEST(Rng, ExponentialHasRequestedMean) {
  Rng r(9);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.next_exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(42);
  Rng child = a.fork();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(Rng, NextRangeInclusive) {
  Rng r(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.next_range(-2, 2));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), -2);
  EXPECT_EQ(*seen.rbegin(), 2);
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
