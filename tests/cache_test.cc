// Unit tests for the caching layer: LRU index, dependency maps, the
// FaaSTCC promise-aware cache, the HydroCache causal cache, and the plain
// Cloudburst cache.
#include <gtest/gtest.h>

#include "cache/cache_messages.h"
#include "cache/faastcc_cache.h"
#include "cache/hydro_cache.h"
#include "cache/hydro_types.h"
#include "cache/lru_index.h"
#include "cache/plain_cache.h"
#include "net/network.h"
#include "sim/future.h"
#include "storage/eventual_store.h"
#include "storage/tcc_partition.h"

namespace faastcc::cache {
namespace {

using client::SnapshotInterval;
using storage::KeyValue;
using storage::TccReadResp;

Timestamp ts(uint64_t us) { return Timestamp(us, 0, 0); }

// ---------------------------------------------------------------------------
// LruIndex
// ---------------------------------------------------------------------------

TEST(LruIndex, EvictionOrderIsLeastRecent) {
  LruIndex lru;
  lru.touch(1);
  lru.touch(2);
  lru.touch(3);
  EXPECT_EQ(*lru.least_recent(), 1u);
  lru.touch(1);  // 2 becomes least recent
  EXPECT_EQ(*lru.least_recent(), 2u);
}

TEST(LruIndex, EraseRemoves) {
  LruIndex lru;
  lru.touch(1);
  lru.touch(2);
  lru.erase(1);
  EXPECT_FALSE(lru.contains(1));
  EXPECT_EQ(lru.size(), 1u);
  EXPECT_EQ(*lru.least_recent(), 2u);
}

TEST(LruIndex, EmptyHasNoVictim) {
  LruIndex lru;
  EXPECT_FALSE(lru.least_recent().has_value());
  lru.erase(5);  // no-op
  EXPECT_EQ(lru.size(), 0u);
}

TEST(LruIndex, TouchIsIdempotentOnSize) {
  LruIndex lru;
  lru.touch(1);
  lru.touch(1);
  lru.touch(1);
  EXPECT_EQ(lru.size(), 1u);
}

// ---------------------------------------------------------------------------
// DepMap
// ---------------------------------------------------------------------------

TEST(DepMap, RequireKeepsMaxCounter) {
  DepMap m;
  m.require(1, 5, 100, 1);
  m.require(1, 3, 50, 0);
  EXPECT_EQ(m.find(1)->counter, 5u);
  m.require(1, 9, 200, 2);
  EXPECT_EQ(m.find(1)->counter, 9u);
  EXPECT_EQ(m.find(1)->level, 2);
}

TEST(DepMap, EqualCounterKeepsMinLevel) {
  DepMap m;
  m.require(1, 5, 100, 2);
  m.require(1, 5, 100, 1);
  EXPECT_EQ(m.find(1)->level, 1);
}

TEST(DepMap, ReadFlagIsSticky) {
  DepMap m;
  m.mark_read(1, 5, 100);
  m.require(1, 7, 200, 1);
  EXPECT_TRUE(m.find(1)->read);
  EXPECT_EQ(m.find(1)->counter, 7u);
}

TEST(DepMap, MergePreservesReadsAndMaxima) {
  DepMap a, b;
  a.mark_read(1, 5, 100);
  a.require(2, 3, 50, 1);
  b.require(1, 9, 200, 2);
  b.mark_read(3, 1, 10);
  a.merge(b);
  EXPECT_TRUE(a.find(1)->read);
  EXPECT_EQ(a.find(1)->counter, 9u);
  EXPECT_EQ(a.find(2)->counter, 3u);
  EXPECT_TRUE(a.find(3)->read);
}

TEST(DepMap, GcDropsOldNonReadEntries) {
  DepMap m;
  m.require(1, 5, 100, 1);
  m.mark_read(2, 5, 100);
  m.require(3, 5, 5000, 1);
  m.gc_before(1000);
  EXPECT_EQ(m.find(1), nullptr);     // old, not read
  EXPECT_NE(m.find(2), nullptr);     // read markers survive
  EXPECT_NE(m.find(3), nullptr);     // young
}

TEST(DepMap, RestrictToDropsIrrelevantKeys) {
  DepMap m;
  m.require(1, 5, 100, 1);
  m.require(2, 5, 100, 1);
  m.require(3, 5, 100, 1);
  std::unordered_set<Key> keep{1, 3};
  m.restrict_to(keep);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.find(2), nullptr);
}

// Regression: the hash-map DepMap encoded in bucket-iteration order, so
// the same logical map produced different bytes depending on insertion
// order (and stdlib).  The wire encoding must be canonical: sorted by key,
// identical across insertion orders.
TEST(DepMap, EncodeIsCanonicalAcrossInsertionOrders) {
  const Key keys[] = {17, 3, 42, 8, 25, 1, 99, 60};
  DepMap forward;
  for (Key k : keys) forward.require(k, k + 1, 100, 1);
  DepMap reverse;
  for (auto it = std::rbegin(keys); it != std::rend(keys); ++it) {
    reverse.require(*it, *it + 1, 100, 1);
  }
  BufWriter wf, wr;
  forward.encode(wf);
  reverse.encode(wr);
  EXPECT_EQ(wf.take(), wr.take()) << "encoding depends on insertion order";

  BufWriter w;
  forward.encode(w);
  const Buffer b = w.take();
  BufReader r(b);
  const uint32_t n = r.get_u32();
  ASSERT_EQ(n, std::size(keys));
  Key prev = 0;
  for (uint32_t i = 0; i < n; ++i) {
    const Key k = r.get_u64();
    r.get_u64();
    r.get_i64();
    r.get_bool();
    r.get_u8();
    if (i > 0) {
      EXPECT_LT(prev, k) << "wire entries not sorted by key";
    }
    prev = k;
  }
}

// Regression: restrict_to used to erase read-marked entries whose keys
// fell outside the declared key set, silently disabling conflict detection
// for reads the static analysis did not anticipate.  Read markers must be
// exempt from pruning.
TEST(DepMap, RestrictToKeepsReadMarkersOutsideDeclaredSet) {
  DepMap m;
  m.mark_read(2, 3, 50);       // actually read, NOT in the declared set
  m.require(5, 7, 100, 1);     // plain dep outside the set: prunable
  m.require(1, 4, 100, 1);     // in the set
  std::unordered_set<Key> declared{1};
  m.restrict_to(declared);
  ASSERT_NE(m.find(2), nullptr) << "read marker dropped by restrict_to";
  EXPECT_TRUE(m.find(2)->read);
  EXPECT_EQ(m.find(2)->counter, 3u);
  EXPECT_NE(m.find(1), nullptr);
  EXPECT_EQ(m.find(5), nullptr);  // non-read entries still pruned
}

TEST(DepMap, WireBytesMatchEncodedSize) {
  DepMap m;
  for (Key k = 0; k < 10; ++k) m.require(k, k + 1, 100, 1);
  BufWriter w;
  m.encode(w);
  EXPECT_EQ(w.size(), m.wire_bytes());
}

TEST(DepMap, EncodeDecodeRoundTrip) {
  DepMap m;
  m.mark_read(1, 5, 100);
  m.require(2, 9, 200, 2);
  BufWriter w;
  m.encode(w);
  const Buffer b = w.take();
  BufReader r(b);
  DepMap d = DepMap::decode(r);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_TRUE(d.find(1)->read);
  EXPECT_EQ(d.find(2)->counter, 9u);
  EXPECT_EQ(d.find(2)->level, 2);
}

// ---------------------------------------------------------------------------
// FaaSTCC cache against a live TCC partition cluster.
// ---------------------------------------------------------------------------

class FaasTccCacheTest : public ::testing::Test {
 protected:
  FaasTccCacheTest()
      : net_(loop_, net::NetworkParams{}, Rng(7)), client_rpc_(net_, 50) {
    storage::TccTopology topo;
    topo.partitions = {100, 101};
    for (size_t p = 0; p < 2; ++p) {
      storage::TccPartitionParams params;
      params.gossip_period = milliseconds(2);
      params.push_period = milliseconds(20);
      partitions_.push_back(std::make_unique<storage::TccPartition>(
          net_, topo.partitions[p], static_cast<PartitionId>(p),
          topo.partitions, params));
    }
    cache_ = std::make_unique<FaasTccCache>(net_, 200, topo, CacheParams{},
                                            &metrics_);
    storage_client_ =
        std::make_unique<storage::TccStorageClient>(client_rpc_, topo);
    for (auto& p : partitions_) p->start();
    loop_.run_until(milliseconds(20));
  }

  template <typename F>
  void run(F&& body) {
    bool done = false;
    sim::spawn([](F f, bool& flag) -> sim::Task<void> {
      co_await f();
      flag = true;
    }(std::forward<F>(body), done));
    // Background gossip/push loops never drain the queue; step until the
    // body completes (or a generous simulated deadline trips).
    const SimTime deadline = loop_.now() + seconds(60);
    while (!done && loop_.now() < deadline) {
      loop_.run_until(loop_.now() + milliseconds(5));
    }
    ASSERT_TRUE(done);
  }

  sim::Task<CacheReadResp> cache_read(std::vector<Key> keys,
                                      SnapshotInterval si,
                                      bool use_promises = true) {
    CacheReadReq req;
    req.interval = si;
    req.use_promises = use_promises;
    req.keys = std::move(keys);
    co_return co_await client_rpc_.call<CacheReadResp>(200, kCacheRead, req);
  }

  sim::Task<Timestamp> commit(Key k, Value v, Timestamp dep) {
    std::vector<KeyValue> writes;
    writes.push_back(KeyValue{k, std::move(v)});
    co_return *co_await storage_client_->commit(next_txn_++, std::move(writes),
                                               dep);
  }

  sim::EventLoop loop_;
  net::Network net_;
  net::RpcNode client_rpc_;
  Metrics metrics_;
  std::vector<std::unique_ptr<storage::TccPartition>> partitions_;
  std::unique_ptr<FaasTccCache> cache_;
  std::unique_ptr<storage::TccStorageClient> storage_client_;
  TxnId next_txn_ = 1;
};

TEST_F(FaasTccCacheTest, MissFetchesFromStorageAndCaches) {
  run([&]() -> sim::Task<void> {
    co_await commit(1, "v1", Timestamp::min());
    co_await sim::sleep_for(loop_, milliseconds(10));
    std::vector<Key> keys(1, Key{1});
    auto resp = co_await cache_read(keys, SnapshotInterval::full());
    EXPECT_FALSE(resp.abort);
    EXPECT_EQ(resp.entries[0].value, "v1");
    EXPECT_FALSE(resp.from_cache[0]);
    EXPECT_TRUE(cache_->has(1));
  });
}

TEST_F(FaasTccCacheTest, SecondReadHitsCache) {
  run([&]() -> sim::Task<void> {
    co_await commit(1, "v1", Timestamp::min());
    co_await sim::sleep_for(loop_, milliseconds(10));
    std::vector<Key> keys(1, Key{1});
    co_await cache_read(keys, SnapshotInterval::full());
    const auto fetches = metrics_.counter("storage.episodes").value();
    auto resp = co_await cache_read(keys, SnapshotInterval::full());
    EXPECT_TRUE(resp.from_cache[0]);
    EXPECT_EQ(metrics_.counter("storage.episodes").value(), fetches);
  });
}

TEST_F(FaasTccCacheTest, IntervalNarrowsToVersionAndPromise) {
  run([&]() -> sim::Task<void> {
    const Timestamp t1 = co_await commit(1, "v1", Timestamp::min());
    co_await sim::sleep_for(loop_, milliseconds(10));
    std::vector<Key> keys(1, Key{1});
    auto resp = co_await cache_read(keys, SnapshotInterval::full());
    EXPECT_EQ(resp.interval.low, t1);
    EXPECT_GE(resp.interval.high, t1);
    EXPECT_LT(resp.interval.high, Timestamp::max());
  });
}

TEST_F(FaasTccCacheTest, StaleEntryPromiseRefreshedNotRefetched) {
  // Paper §4.6 "current version is stale": the entry's promise is behind
  // the request's lower bound; the storage answers "unchanged" and only
  // the promise is updated.
  run([&]() -> sim::Task<void> {
    const Timestamp t1 = co_await commit(1, "v1", Timestamp::min());
    co_await sim::sleep_for(loop_, milliseconds(10));
    std::vector<Key> k1(1, Key{1});
    co_await cache_read(k1, SnapshotInterval::full());
    // Build an interval whose low bound is beyond the cached promise.
    const Timestamp future_low = cache_->peek(1)->promise.next();
    co_await commit(2, "x", future_low);  // push real time forward
    co_await sim::sleep_for(loop_, milliseconds(30));
    SnapshotInterval si;
    si.low = future_low;
    auto resp = co_await cache_read(k1, si);
    EXPECT_FALSE(resp.abort);
    EXPECT_EQ(resp.entries[0].value, "v1");
    EXPECT_EQ(resp.entries[0].ts, t1);
    EXPECT_GE(resp.entries[0].promise, future_low);
  });
}

TEST_F(FaasTccCacheTest, ReplacedVersionServedWithoutCacheUpdate) {
  // Paper §4.6 "desired version has been replaced": an older snapshot
  // needs an older version; it is served but the newer cache entry stays.
  run([&]() -> sim::Task<void> {
    const Timestamp t1 = co_await commit(1, "v1", Timestamp::min());
    const Timestamp t2 = co_await commit(1, "v2", t1);
    co_await sim::sleep_for(loop_, milliseconds(10));
    std::vector<Key> k1(1, Key{1});
    co_await cache_read(k1, SnapshotInterval::full());  // caches v2
    EXPECT_EQ(cache_->peek(1)->ts, t2);
    SnapshotInterval old_si;
    old_si.high = t2.prev();
    auto resp = co_await cache_read(k1, old_si);
    EXPECT_EQ(resp.entries[0].value, "v1");
    EXPECT_EQ(cache_->peek(1)->ts, t2);  // cache not downgraded
  });
}

TEST_F(FaasTccCacheTest, PushUpdatesSubscribedEntry) {
  run([&]() -> sim::Task<void> {
    co_await commit(1, "v1", Timestamp::min());
    co_await sim::sleep_for(loop_, milliseconds(10));
    std::vector<Key> k1(1, Key{1});
    co_await cache_read(k1, SnapshotInterval::full());
    const Timestamp t2 = co_await commit(1, "v2", Timestamp::min());
    co_await sim::sleep_for(loop_, milliseconds(60));  // > push period
    EXPECT_EQ(cache_->peek(1)->ts, t2);
    EXPECT_EQ(cache_->peek(1)->value, "v2");
    EXPECT_GE(cache_->peek(1)->promise, t2);  // the pushed promise
  });
}

TEST_F(FaasTccCacheTest, PromiseExtensionKeepsIdleEntriesServable) {
  run([&]() -> sim::Task<void> {
    co_await commit(1, "v1", Timestamp::min());
    co_await sim::sleep_for(loop_, milliseconds(10));
    std::vector<Key> k1(1, Key{1});
    co_await cache_read(k1, SnapshotInterval::full());
    const Timestamp promise_then = cache_->peek(1)->promise;
    // No further writes to key 1; idle pushes extend the usable promise.
    co_await sim::sleep_for(loop_, milliseconds(200));
    const auto fetches = metrics_.counter("storage.episodes").value();
    SnapshotInterval si;
    si.low = promise_then.next();  // beyond the stored promise
    auto resp = co_await cache_read(k1, si);
    EXPECT_TRUE(resp.from_cache[0]);
    EXPECT_EQ(metrics_.counter("storage.episodes").value(), fetches);
  });
}

TEST_F(FaasTccCacheTest, NoPromiseModeRequiresExactVersionInInterval) {
  run([&]() -> sim::Task<void> {
    const Timestamp t1 = co_await commit(1, "v1", Timestamp::min());
    co_await sim::sleep_for(loop_, milliseconds(10));
    std::vector<Key> k1(1, Key{1});
    co_await cache_read(k1, SnapshotInterval::full());
    const auto fetches = metrics_.counter("storage.episodes").value();
    // With promises disabled, an interval above the version ts misses.
    SnapshotInterval si;
    si.low = t1.next();
    auto resp = co_await cache_read(k1, si, /*use_promises=*/false);
    EXPECT_FALSE(resp.abort);
    EXPECT_GT(metrics_.counter("storage.episodes").value(), fetches);
  });
}

TEST_F(FaasTccCacheTest, CapacityBoundEvictsLeastRecent) {
  cache_ = std::make_unique<FaasTccCache>(
      net_, 201, storage::TccTopology{{100, 101}}, CacheParams{2}, &metrics_);
  run([&]() -> sim::Task<void> {
    co_await commit(1, "a", Timestamp::min());
    co_await commit(2, "b", Timestamp::min());
    co_await commit(3, "c", Timestamp::min());
    co_await sim::sleep_for(loop_, milliseconds(10));
    for (Key k : {Key{1}, Key{2}, Key{3}}) {
      std::vector<Key> keys(1, k);
      CacheReadReq req;
      req.interval = SnapshotInterval::full();
      req.keys = keys;
      co_await client_rpc_.call<CacheReadResp>(201, kCacheRead, req);
    }
    EXPECT_EQ(cache_->entry_count(), 2u);
    EXPECT_FALSE(cache_->has(1));  // least recently used
    EXPECT_TRUE(cache_->has(3));
  });
}

TEST_F(FaasTccCacheTest, DisabledCacheNeverStores) {
  cache_ = std::make_unique<FaasTccCache>(
      net_, 201, storage::TccTopology{{100, 101}}, CacheParams{0}, &metrics_);
  run([&]() -> sim::Task<void> {
    co_await commit(1, "a", Timestamp::min());
    co_await sim::sleep_for(loop_, milliseconds(10));
    std::vector<Key> keys(1, Key{1});
    CacheReadReq req;
    req.interval = SnapshotInterval::full();
    req.keys = keys;
    auto resp = co_await client_rpc_.call<CacheReadResp>(201, kCacheRead, req);
    EXPECT_EQ(resp.entries[0].value, "a");
    EXPECT_EQ(cache_->entry_count(), 0u);
  });
}

TEST_F(FaasTccCacheTest, PrewarmWithoutSubscriptionStaysClosed) {
  // A pre-warmed entry with no backing subscription must keep its promise
  // frozen at the install-time stable time: the cache will never hear of
  // later versions, so extending the promise with pushed stable times
  // (which only other keys' subscriptions keep flowing) would be unsound.
  run([&]() -> sim::Task<void> {
    const Timestamp t1 = co_await commit(2, "warm", Timestamp::min());
    // Organic subscription to another key of the same partition keeps
    // stable-time pushes flowing to this cache.
    co_await commit(4, "x", Timestamp::min());
    co_await sim::sleep_for(loop_, milliseconds(10));
    std::vector<Key> k4(1, Key{4});
    auto sub_resp = co_await cache_read(k4, SnapshotInterval::full());
    EXPECT_FALSE(sub_resp.abort);
    cache_->prewarm(storage::VersionedValue{2, "warm", t1,
                                            partitions_[0]->stable_time()});
    EXPECT_NE(cache_->peek(2), nullptr);
    EXPECT_FALSE(cache_->peek(2)->open);
    const Timestamp frozen = cache_->peek(2)->promise;
    // Keys 2 and 4 live on partition 0.
    const Timestamp stable_then = cache_->partition_stable(0);
    // A new version of key 2 the cache never hears about.
    const Timestamp t2 = co_await commit(2, "new", t1);
    co_await sim::sleep_for(loop_, milliseconds(100));
    EXPECT_GT(cache_->partition_stable(0), stable_then)
        << "no stable-time push arrived";
    std::vector<Key> k2(1, Key{2});
    auto resp = co_await cache_read(k2, SnapshotInterval::full());
    EXPECT_EQ(resp.entries[0].ts, t1);
    EXPECT_EQ(resp.entries[0].promise, frozen);
    EXPECT_LT(resp.entries[0].promise, t2) << "promise covers unseen version";
  });
}

TEST_F(FaasTccCacheTest, SubscribedPrewarmOpensEntry) {
  run([&]() -> sim::Task<void> {
    const Timestamp t1 = co_await commit(2, "warm", Timestamp::min());
    co_await sim::sleep_for(loop_, milliseconds(10));
    partitions_[0]->add_subscriber(2, cache_->address());
    cache_->prewarm(storage::VersionedValue{2, "warm", t1,
                                            partitions_[0]->stable_time()},
                    /*subscribed=*/true);
    EXPECT_NE(cache_->peek(2), nullptr);
    EXPECT_TRUE(cache_->peek(2)->open);
  });
}

TEST_F(FaasTccCacheTest, ChaosOpenPrewarmExtendsPromiseOverUnseenVersion) {
  // The historical bug, reintroduced via the chaos knob: pre-warm entries
  // open with no subscription.  Pushes earned by other keys extend the
  // stale entry's promise past a version the cache never heard about.
  CacheParams cp;
  cp.chaos_prewarm_open = true;
  cache_ = std::make_unique<FaasTccCache>(
      net_, 201, storage::TccTopology{{100, 101}}, cp, &metrics_);
  run([&]() -> sim::Task<void> {
    const Timestamp t1 = co_await commit(2, "warm", Timestamp::min());
    co_await commit(4, "x", Timestamp::min());
    co_await sim::sleep_for(loop_, milliseconds(10));
    // Organic subscription to key 4 keeps stable-time pushes flowing.
    CacheReadReq sub_req;
    sub_req.interval = SnapshotInterval::full();
    sub_req.keys.push_back(4);
    auto sub_resp =
        co_await client_rpc_.call<CacheReadResp>(201, kCacheRead, sub_req);
    EXPECT_FALSE(sub_resp.abort);
    cache_->prewarm(storage::VersionedValue{2, "warm", t1,
                                            partitions_[0]->stable_time()});
    EXPECT_TRUE(cache_->peek(2)->open);  // open, yet nobody subscribed it
    const Timestamp t2 = co_await commit(2, "new", t1);
    // Wait until gossip stabilizes past t2 and pushed stable times (earned
    // by key 4's subscription alone) overtake it.
    co_await sim::sleep_for(loop_, milliseconds(200));
    CacheReadReq req;
    req.interval = SnapshotInterval::full();
    req.keys.push_back(2);
    auto resp = co_await client_rpc_.call<CacheReadResp>(201, kCacheRead, req);
    EXPECT_EQ(resp.entries[0].ts, t1);
    EXPECT_GE(resp.entries[0].promise, t2)
        << "expected the unsound promise the chaos knob reintroduces";
  });
}

TEST_F(FaasTccCacheTest, NoPromiseModeNarrowsHighToVersionTs) {
  // Fig. 3 ablation fidelity: with promises disabled the interval must
  // narrow with the bare version timestamp on cache hits too — narrowing
  // with the full promise would leak promise benefit into the baseline.
  run([&]() -> sim::Task<void> {
    const Timestamp t1 = co_await commit(1, "v1", Timestamp::min());
    co_await sim::sleep_for(loop_, milliseconds(10));
    std::vector<Key> k1(1, Key{1});
    co_await cache_read(k1, SnapshotInterval::full());  // populate
    auto resp =
        co_await cache_read(k1, SnapshotInterval::full(), /*use_promises=*/false);
    EXPECT_TRUE(resp.from_cache[0]);
    EXPECT_EQ(resp.interval.low, t1);
    EXPECT_EQ(resp.interval.high, t1);
  });
}

TEST_F(FaasTccCacheTest, BatchKeepsEntriesMutuallyConsistent) {
  run([&]() -> sim::Task<void> {
    co_await commit(1, "a", Timestamp::min());
    co_await commit(2, "b", Timestamp::min());
    co_await sim::sleep_for(loop_, milliseconds(10));
    std::vector<Key> keys;
    keys.push_back(1);
    keys.push_back(2);
    auto resp = co_await cache_read(keys, SnapshotInterval::full());
    EXPECT_FALSE(resp.abort);
    EXPECT_FALSE(resp.interval.empty());
    // Both versions admissible at every snapshot in the final interval.
    for (const auto& e : resp.entries) {
      EXPECT_LE(e.ts, resp.interval.high);
      EXPECT_GE(e.promise, resp.interval.low);
    }
  });
}

// ---------------------------------------------------------------------------
// HydroCache against a live eventual store.
// ---------------------------------------------------------------------------

class HydroCacheTest : public ::testing::Test {
 protected:
  HydroCacheTest()
      : net_(loop_, net::NetworkParams{}, Rng(7)), client_rpc_(net_, 50) {
    storage::EvTopology topo;
    topo.replicas = {{100, 101}};
    std::vector<net::Address> all{100, 101};
    storage::EventualStoreParams params;
    params.gossip_period = milliseconds(5);
    params.push_period = milliseconds(20);
    replicas_.push_back(std::make_unique<storage::EvReplica>(
        net_, 100, 0, std::vector<net::Address>{101}, all, params));
    replicas_.push_back(std::make_unique<storage::EvReplica>(
        net_, 101, 1, std::vector<net::Address>{100}, all, params));
    HydroCacheParams cp;
    cp.retry_backoff = microseconds(500);
    cache_ = std::make_unique<HydroCache>(net_, 200, topo, Rng(3), cp,
                                          &metrics_);
    storage_client_ =
        std::make_unique<storage::EvStorageClient>(client_rpc_, topo, Rng(5));
    for (auto& r : replicas_) r->start();
  }

  template <typename F>
  void run(F&& body) {
    bool done = false;
    sim::spawn([](F f, bool& flag) -> sim::Task<void> {
      co_await f();
      flag = true;
    }(std::forward<F>(body), done));
    // Background gossip/push loops never drain the queue; step until the
    // body completes (or a generous simulated deadline trips).
    const SimTime deadline = loop_.now() + seconds(60);
    while (!done && loop_.now() < deadline) {
      loop_.run_until(loop_.now() + milliseconds(5));
    }
    ASSERT_TRUE(done);
  }

  sim::Task<HydroReadResp> cache_read(Key k, DepMap ctx) {
    co_return co_await cache_read_keys(std::vector<Key>(1, k), std::move(ctx));
  }

  sim::Task<HydroReadResp> cache_read_keys(std::vector<Key> keys, DepMap ctx) {
    HydroReadReq req;
    req.keys = std::move(keys);
    req.context = std::move(ctx);
    co_return co_await client_rpc_.call<HydroReadResp>(200, kHydroRead, req);
  }

  sim::Task<storage::EvVersion> put(Key k, Value v,
                                    std::vector<StoredDep> deps,
                                    uint64_t counter) {
    HydroStored stored;
    stored.value = std::move(v);
    stored.deps = std::move(deps);
    const Buffer payload = encode_message(stored);
    storage::EvItem item;
    item.key = k;
    item.version = storage::EvVersion{counter, 99};
    item.payload = Value(std::string_view(
        reinterpret_cast<const char*>(payload.data()), payload.size()));
    auto versions =
        *co_await storage_client_->put(std::vector<storage::EvItem>(1, item));
    co_return versions[0];
  }

  sim::EventLoop loop_;
  net::Network net_;
  net::RpcNode client_rpc_;
  Metrics metrics_;
  std::vector<std::unique_ptr<storage::EvReplica>> replicas_;
  std::unique_ptr<HydroCache> cache_;
  std::unique_ptr<storage::EvStorageClient> storage_client_;
};

TEST_F(HydroCacheTest, FetchesAndCachesValueWithDeps) {
  run([&]() -> sim::Task<void> {
    std::vector<StoredDep> deps;
    deps.push_back(StoredDep{7, 3, 100, 0});
    co_await put(1, "v", deps, 5);
    co_await sim::sleep_for(loop_, milliseconds(20));
    auto resp = co_await cache_read(1, DepMap{});
    EXPECT_FALSE(resp.abort);
    EXPECT_EQ(resp.entries[0].value, "v");
    EXPECT_EQ(resp.entries[0].deps.size(), 1u);
    EXPECT_TRUE(cache_->has(1));
    EXPECT_EQ(cache_->stub_count(), 1u);  // dep stub for key 7
  });
}

TEST_F(HydroCacheTest, TooOldCachedEntryTriggersStorageRounds) {
  run([&]() -> sim::Task<void> {
    co_await put(1, "old", {}, 5);
    co_await sim::sleep_for(loop_, milliseconds(20));
    co_await cache_read(1, DepMap{});  // caches counter 5
    co_await put(1, "new", {}, 9);
    DepMap ctx;
    ctx.require(1, 9, 0, 0);
    auto resp = co_await cache_read(1, ctx);
    EXPECT_FALSE(resp.abort);
    EXPECT_EQ(resp.entries[0].value, "new");
    EXPECT_GE(resp.entries[0].counter, 9u);
  });
}

TEST_F(HydroCacheTest, ConflictingDependencyAborts) {
  run([&]() -> sim::Task<void> {
    // Value of key 1 depends on key 2 @ counter 9, but the transaction
    // already read key 2 @ counter 3 -> irreconcilable.
    std::vector<StoredDep> deps;
    deps.push_back(StoredDep{2, 9, 100, 0});
    co_await put(1, "v", deps, 5);
    co_await sim::sleep_for(loop_, milliseconds(20));
    DepMap ctx;
    ctx.mark_read(2, 3, 50);
    auto resp = co_await cache_read(1, ctx);
    EXPECT_TRUE(resp.abort);
    EXPECT_GT(metrics_.counter("hydro.conflict_aborts").value(), 0u);
  });
}

TEST_F(HydroCacheTest, ReadOutsideDeclaredSetStillAborts) {
  run([&]() -> sim::Task<void> {
    // Regression for the restrict_to pruning bug: the transaction read
    // key 2 (counter 3), but key 2 is not in the statically declared set,
    // so the old restrict_to dropped the read marker.  The subsequent read
    // of key 1 — whose stored value depends on key 2 @ counter 9 — then
    // sailed through instead of aborting on the irreconcilable conflict.
    std::vector<StoredDep> deps;
    deps.push_back(StoredDep{2, 9, 100, 0});
    co_await put(1, "v", deps, 5);
    co_await sim::sleep_for(loop_, milliseconds(20));
    DepMap ctx;
    ctx.mark_read(2, 3, 50);
    ctx.restrict_to(std::unordered_set<Key>{1});  // declared set: {1} only
    EXPECT_NE(ctx.find(2), nullptr);
    auto resp = co_await cache_read(1, std::move(ctx));
    EXPECT_TRUE(resp.abort)
        << "conflict on a read outside the declared set must still abort";
    EXPECT_GT(metrics_.counter("hydro.conflict_aborts").value(), 0u);
  });
}

TEST_F(HydroCacheTest, RequirementWaitsForReplication) {
  run([&]() -> sim::Task<void> {
    co_await put(1, "v9", {}, 9);
    // Immediately require counter 9: the sticky read replica may not have
    // it yet; the cache must retry until anti-entropy delivers it.
    DepMap ctx;
    ctx.require(1, 9, 0, 0);
    auto resp = co_await cache_read(1, ctx);
    EXPECT_FALSE(resp.abort);
    EXPECT_GE(resp.entries[0].counter, 9u);
  });
}

TEST_F(HydroCacheTest, PushRefreshesSubscribedEntry) {
  run([&]() -> sim::Task<void> {
    co_await put(1, "v1", {}, 2);
    co_await sim::sleep_for(loop_, milliseconds(20));
    co_await cache_read(1, DepMap{});  // insert + subscribe
    co_await sim::sleep_for(loop_, milliseconds(30));
    co_await put(1, "v2", {}, 7);
    co_await sim::sleep_for(loop_, milliseconds(120));
    // A read requiring the new version is now served from the cache.
    const double rounds = metrics_.histogram("storage.rounds").sum();
    DepMap ctx;
    ctx.require(1, 7, 0, 0);
    auto resp = co_await cache_read(1, ctx);
    EXPECT_FALSE(resp.abort);
    EXPECT_TRUE(resp.from_cache[0]) << "the push did not refresh the entry";
    EXPECT_EQ(resp.entries[0].value, "v2");
    EXPECT_EQ(metrics_.histogram("storage.rounds").sum(), rounds);
  });
}

// Within one request, what accepting key 1 adds to the context — its
// dependencies, its read marker — constrains the candidates for key 2.

// Plain helpers: braced lists inside coroutine bodies trip GCC.
std::vector<Key> two_keys() { return {1, 2}; }
std::vector<StoredDep> deps_of(StoredDep d) { return {d}; }

// A context as shipped: decoded off the wire, with entries unrelated to
// the keys read.
DepMap shipped_context() {
  DepMap ctx;
  ctx.require(50, 1, 10, 1);
  ctx.mark_read(60, 1, 10);
  const Buffer wire = encode_message(ctx);
  BufReader r(wire);
  return DepMap::decode(r);
}

TEST_F(HydroCacheTest, DependencyAcceptedEarlierInRequestRejectsStaleEntry) {
  run([&]() -> sim::Task<void> {
    // Key 2 is cached at counter 3 (unsubscribed, so no push refreshes
    // it); key 1's stored version depends on key 2 @ counter 8.
    cache_->prewarm(2, "old", 3, 0);
    co_await put(2, "new", {}, 8);
    co_await put(1, "v1", deps_of(StoredDep{2, 8, 100, 0}), 5);
    co_await sim::sleep_for(loop_, milliseconds(20));
    auto resp = co_await cache_read_keys(two_keys(), shipped_context());
    EXPECT_FALSE(resp.abort);
    EXPECT_EQ(resp.entries[0].counter, 5u);
    EXPECT_FALSE(resp.from_cache[1]) << "stale cached key 2 was served";
    EXPECT_EQ(resp.entries[1].value, "new");
    EXPECT_GE(resp.entries[1].counter, 8u);
  });
}

TEST_F(HydroCacheTest, ReadAcceptedEarlierInRequestMakesCandidateConflict) {
  run([&]() -> sim::Task<void> {
    // Key 2's only version depends on key 1 @ counter 9, but the store
    // holds key 1 @ counter 5: reading 1 first leaves no consistent key 2.
    co_await put(1, "v1", {}, 5);
    co_await put(2, "v2", deps_of(StoredDep{1, 9, 100, 0}), 4);
    co_await sim::sleep_for(loop_, milliseconds(20));
    co_await cache_read(2, DepMap{});  // caches key 2 with its dependency
    EXPECT_TRUE(cache_->has(2));
    auto resp = co_await cache_read_keys(two_keys(), shipped_context());
    EXPECT_TRUE(resp.abort);
    EXPECT_GT(metrics_.counter("hydro.conflict_aborts").value(), 0u);
  });
}

TEST_F(HydroCacheTest, EmptyContextRequestStillAcceptsAndRecords) {
  run([&]() -> sim::Task<void> {
    cache_->prewarm(2, "old", 3, 0);
    co_await put(2, "new", {}, 8);
    std::vector<StoredDep> deps = deps_of(StoredDep{2, 8, 100, 0});
    deps.push_back(StoredDep{7, 1, 100, 1});
    co_await put(1, "v1", deps, 5);
    co_await sim::sleep_for(loop_, milliseconds(20));
    auto resp = co_await cache_read_keys(two_keys(), DepMap{});
    EXPECT_FALSE(resp.abort);
    EXPECT_EQ(resp.entries[0].key, 1u);
    EXPECT_EQ(resp.entries[0].value, "v1");
    EXPECT_EQ(resp.entries[0].counter, 5u);
    EXPECT_EQ(resp.entries[0].deps.size(), 2u);
    EXPECT_EQ(resp.entries[1].key, 2u);
    EXPECT_EQ(resp.entries[1].value, "new");
    EXPECT_GE(resp.entries[1].counter, 8u);
    EXPECT_FALSE(resp.from_cache[1]) << "stale cached key 2 was served";
  });
}

TEST_F(HydroCacheTest, FootprintCountsDepsAndStubs) {
  run([&]() -> sim::Task<void> {
    std::vector<StoredDep> deps;
    deps.push_back(StoredDep{7, 3, 100, 0});
    deps.push_back(StoredDep{8, 4, 100, 1});
    co_await put(1, "valu", deps, 5);
    co_await sim::sleep_for(loop_, milliseconds(20));
    const size_t before = cache_->bytes();
    co_await cache_read(1, DepMap{});
    // Entry: 4 value bytes + 24 + 2 deps x 24; stubs: 2 x 24.
    EXPECT_EQ(cache_->bytes() - before, 4u + 24u + 48u + 48u);
  });
}

// ---------------------------------------------------------------------------
// Plain cache.
// ---------------------------------------------------------------------------

TEST(PlainCache, CachesAfterFirstFetch) {
  sim::EventLoop loop;
  net::Network net(loop, net::NetworkParams{}, Rng(7));
  net::RpcNode client_rpc(net, 50);
  storage::EvTopology topo;
  topo.replicas = {{100}};
  storage::EventualStoreParams params;
  storage::EvReplica replica(net, 100, 0, {}, {100}, params);
  Metrics metrics;
  PlainCache cache(net, 200, topo, Rng(3), PlainCacheParams{}, &metrics);
  storage::EvItem item;
  item.key = 1;
  item.version = storage::EvVersion{1, 0};
  item.payload = "pv";
  replica.preload(item);
  replica.start();

  bool done = false;
  sim::spawn([](net::RpcNode& rpc, PlainCache& c, bool& flag) -> sim::Task<void> {
    PlainReadReq req;
    req.keys.push_back(1);
    auto r1 = co_await rpc.call<PlainReadResp>(200, kPlainRead, req);
    EXPECT_EQ(r1.entries[0].value, "pv");
    EXPECT_EQ(c.entry_count(), 1u);
    auto r2 = co_await rpc.call<PlainReadResp>(200, kPlainRead, req);
    EXPECT_EQ(r2.entries[0].value, "pv");
    flag = true;
  }(client_rpc, cache, done));
  while (!done && loop.now() < seconds(30)) {
    loop.run_until(loop.now() + milliseconds(5));
  }
  EXPECT_TRUE(done);
  EXPECT_EQ(metrics.storage_episodes.value(), 1u);  // only the first read
}

}  // namespace
}  // namespace faastcc::cache
