// Unit and protocol tests for the storage layer: MV store, stabilizer,
// TCC partitions (promises, commits, atomic visibility, pub/sub, GC) and
// the eventually consistent store.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "net/network.h"
#include "sim/future.h"
#include "storage/eventual_store.h"
#include "storage/mv_store.h"
#include "storage/stabilizer.h"
#include "storage/storage_client.h"
#include "storage/tcc_partition.h"

namespace faastcc::storage {
namespace {

Timestamp ts(uint64_t us) { return Timestamp(us, 0, 0); }

// GCC 12 rejects braced-init-list arguments inside coroutines, so small
// helpers build the vectors the storage client takes.
std::vector<KeyValue> one_write(Key k, Value v) {
  std::vector<KeyValue> w;
  w.push_back(KeyValue{k, std::move(v)});
  return w;
}

std::vector<Key> keys_of(Key a) { return std::vector<Key>(1, a); }
std::vector<Key> keys_of(Key a, Key b, Key c) {
  std::vector<Key> v;
  v.push_back(a);
  v.push_back(b);
  v.push_back(c);
  return v;
}

std::vector<Timestamp> no_cache(size_t n) {
  return std::vector<Timestamp>(n, Timestamp::min());
}

// ---------------------------------------------------------------------------
// MvStore
// ---------------------------------------------------------------------------

TEST(MvStore, ReadAtReturnsNewestAtOrBelowSnapshot) {
  MvStore s;
  s.install(1, "a", ts(10));
  s.install(1, "b", ts(20));
  s.install(1, "c", ts(30));
  EXPECT_EQ(s.read_at(1, ts(25)).version->value, "b");
  EXPECT_EQ(s.read_at(1, ts(20)).version->value, "b");
  EXPECT_EQ(s.read_at(1, ts(19)).version->value, "a");
  EXPECT_EQ(s.read_at(1, ts(100)).version->value, "c");
}

TEST(MvStore, ReportsSuccessorTimestamp) {
  MvStore s;
  s.install(1, "a", ts(10));
  s.install(1, "b", ts(20));
  const auto r = s.read_at(1, ts(15));
  ASSERT_TRUE(r.next_ts.has_value());
  EXPECT_EQ(*r.next_ts, ts(20));
  EXPECT_FALSE(s.read_at(1, ts(25)).next_ts.has_value());
}

TEST(MvStore, MissingKeyReadsNull) {
  MvStore s;
  const auto r = s.read_at(99, ts(10));
  EXPECT_EQ(r.version, nullptr);
  EXPECT_FALSE(r.below_gc_horizon);
}

TEST(MvStore, OutOfOrderInstallKeepsChainSorted) {
  MvStore s;
  s.install(1, "c", ts(30));
  s.install(1, "a", ts(10));
  s.install(1, "b", ts(20));
  EXPECT_EQ(s.read_at(1, ts(15)).version->value, "a");
  EXPECT_EQ(s.read_at(1, ts(30)).version->value, "c");
}

TEST(MvStore, GcKeepsTheHorizonVersion) {
  MvStore s;
  s.install(1, "a", ts(10));
  s.install(1, "b", ts(20));
  s.install(1, "c", ts(30));
  EXPECT_EQ(s.gc_before(ts(25)), 1u);  // only "a" drops; "b" still serves 25
  EXPECT_EQ(s.read_at(1, ts(25)).version->value, "b");
  EXPECT_EQ(s.read_at(1, ts(100)).version->value, "c");
}

TEST(MvStore, ReadBelowGcHorizonIsFlagged) {
  MvStore s;
  s.install(1, "a", ts(10));
  s.install(1, "b", ts(20));
  s.gc_before(ts(50));
  const auto r = s.read_at(1, ts(15));
  EXPECT_EQ(r.version, nullptr);
  EXPECT_TRUE(r.below_gc_horizon);
}

TEST(MvStore, TracksBytesAndCounts) {
  MvStore s;
  s.install(1, "aaaa", ts(10));
  s.install(2, "bb", ts(20));
  EXPECT_EQ(s.num_keys(), 2u);
  EXPECT_EQ(s.num_versions(), 2u);
  EXPECT_EQ(s.value_bytes(), 6u);
  s.gc_before(ts(100));
  EXPECT_EQ(s.num_versions(), 2u);  // newest of each key survives
}

// ---- Migrated chains (elastic handoff) x GC -------------------------------

std::vector<MvStore::Version> chain_of(
    std::initializer_list<std::pair<const char*, uint64_t>> versions) {
  std::vector<MvStore::Version> out;
  for (const auto& [v, t] : versions) {
    out.push_back(MvStore::Version{Value(v), ts(t)});
  }
  return out;
}

TEST(MvStore, MigratedChainBehavesLikeLocallyInstalledOne) {
  MvStore s;
  // Out-of-order parcel: migrate_in must sort and account it.
  s.migrate_in(7, chain_of({{"c", 30}, {"a", 10}, {"b", 20}}));
  EXPECT_EQ(s.num_keys(), 1u);
  EXPECT_EQ(s.num_versions(), 3u);
  EXPECT_EQ(s.value_bytes(), 3u);
  EXPECT_EQ(s.read_at(7, ts(25)).version->value, "b");
  ASSERT_TRUE(s.oldest_ts(7).has_value());
  EXPECT_EQ(*s.oldest_ts(7), ts(10));
  EXPECT_EQ(*s.newest_ts(7), ts(30));
}

TEST(MvStore, MigrateInIsIdempotentUnderRedelivery) {
  MvStore s;
  s.install(7, "b", ts(20));  // already applied from a previous parcel
  s.migrate_in(7, chain_of({{"a", 10}, {"b", 20}}));
  s.migrate_in(7, chain_of({{"a", 10}, {"b", 20}}));  // full retry
  EXPECT_EQ(s.num_versions(), 2u);
  EXPECT_EQ(s.value_bytes(), 2u);
  EXPECT_EQ(s.read_at(7, ts(100)).version->value, "b");
}

TEST(MvStore, GcOnMigratedChainKeepsHorizonVersionAndMovesOldestTs) {
  MvStore s;
  s.migrate_in(7, chain_of({{"a", 10}, {"b", 20}, {"c", 30}}));
  EXPECT_EQ(s.gc_before(ts(25)), 1u);  // "a" drops; "b" still serves 25
  EXPECT_EQ(s.read_at(7, ts(25)).version->value, "b");
  EXPECT_EQ(s.read_at(7, ts(100)).version->value, "c");
  ASSERT_TRUE(s.oldest_ts(7).has_value());
  EXPECT_EQ(*s.oldest_ts(7), ts(20));
}

TEST(MvStore, ReadBelowGcHorizonIsFlaggedOnMigratedChain) {
  MvStore s;
  s.migrate_in(7, chain_of({{"a", 10}, {"b", 20}}));
  s.gc_before(ts(50));
  const auto r = s.read_at(7, ts(15));
  EXPECT_EQ(r.version, nullptr);
  EXPECT_TRUE(r.below_gc_horizon);
  // At or above the horizon version's timestamp the read is reliable.
  ASSERT_NE(s.read_at(7, ts(20)).version, nullptr);
  EXPECT_EQ(s.read_at(7, ts(20)).version->value, "b");
}

TEST(MvStore, ExtractChainsRemovesAccountingAndSortsByKey) {
  MvStore s;
  s.install(1, "a", ts(10));
  s.install(9, "bb", ts(20));
  s.install(9, "cc", ts(30));
  s.install(4, "d", ts(40));
  auto out = s.extract_chains([](Key k) { return k != 4; });
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].first, 1u);  // sorted by key regardless of hash order
  EXPECT_EQ(out[1].first, 9u);
  EXPECT_EQ(out[1].second.size(), 2u);
  EXPECT_EQ(s.num_keys(), 1u);
  EXPECT_EQ(s.num_versions(), 1u);
  EXPECT_EQ(s.value_bytes(), 1u);
  EXPECT_EQ(s.read_at(9, ts(100)).version, nullptr);
  // Round-trip: migrating the extracted chains into a fresh store restores
  // reads and accounting exactly.
  MvStore t;
  for (auto& [k, versions] : out) t.migrate_in(k, versions);
  EXPECT_EQ(t.num_versions(), 3u);
  EXPECT_EQ(t.value_bytes(), 5u);
  EXPECT_EQ(t.read_at(9, ts(25)).version->value, "bb");
}

// Property sweep: MvStore agrees with a trivial full-history reference
// under random installs, GCs and reads.  After gc_before(h), reads at
// snapshots >= h must still return exactly what the reference returns.
class MvStoreRandomOps : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MvStoreRandomOps, MatchesReferenceModel) {
  Rng rng(GetParam());
  MvStore store;
  // Reference: per key, sorted (ts -> value), never GC'd.
  std::map<Key, std::map<uint64_t, Value>> reference;
  uint64_t gc_horizon = 0;
  uint64_t next_ts = 1;

  for (int op = 0; op < 2000; ++op) {
    const int what = static_cast<int>(rng.next_below(10));
    if (what < 6) {  // install
      const Key k = rng.next_below(20);
      next_ts += 1 + rng.next_below(5);
      const Value v = std::to_string(next_ts);
      store.install(k, v, ts(next_ts));
      reference[k][next_ts] = v;
    } else if (what < 9) {  // read at a random snapshot >= GC horizon
      const Key k = rng.next_below(20);
      const uint64_t snap =
          gc_horizon + rng.next_below(next_ts - gc_horizon + 10);
      const auto got = store.read_at(k, ts(snap));
      const auto& chain = reference[k];
      auto it = chain.upper_bound(snap);
      if (it == chain.begin()) {
        EXPECT_EQ(got.version, nullptr);
      } else {
        auto cur = std::prev(it);
        ASSERT_NE(got.version, nullptr)
            << "key " << k << " snap " << snap << " seed " << GetParam();
        EXPECT_EQ(got.version->value, cur->second);
        EXPECT_EQ(got.version->ts, ts(cur->first));
      }
      if (it == chain.end()) {
        EXPECT_FALSE(got.next_ts.has_value());
      } else {
        ASSERT_TRUE(got.next_ts.has_value());
        EXPECT_EQ(*got.next_ts, ts(it->first));
      }
    } else {  // GC at a random horizon <= current time
      gc_horizon = std::max<uint64_t>(gc_horizon, rng.next_below(next_ts + 1));
      store.gc_before(ts(gc_horizon));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MvStoreRandomOps,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---------------------------------------------------------------------------
// Stabilizer
// ---------------------------------------------------------------------------

TEST(Stabilizer, StableTimeIsMinimumOverPartitions) {
  Stabilizer s(0, 3);
  s.on_gossip(0, ts(30));
  s.on_gossip(1, ts(10));
  s.on_gossip(2, ts(20));
  EXPECT_EQ(s.stable_time(), ts(10));
}

TEST(Stabilizer, UnheardPartitionHoldsStableAtMin) {
  Stabilizer s(0, 3);
  s.on_gossip(0, ts(30));
  s.on_gossip(1, ts(10));
  EXPECT_EQ(s.stable_time(), Timestamp::min());
}

TEST(Stabilizer, StaleGossipIsIgnored) {
  Stabilizer s(0, 2);
  s.on_gossip(1, ts(50));
  s.on_gossip(1, ts(20));  // late, out-of-order gossip
  s.on_gossip(0, ts(100));
  EXPECT_EQ(s.stable_time(), ts(50));
}

TEST(Stabilizer, GossipBeyondMembershipIsCountedNotIgnored) {
  Stabilizer s(0, 2);
  s.on_gossip(0, ts(30));
  s.on_gossip(1, ts(20));
  // A joiner's gossip arriving before this partition adopts the epoch
  // bump: dropped, but observably (fix for the silent-ignore behaviour).
  EXPECT_FALSE(s.on_gossip(5, ts(40)));
  EXPECT_EQ(s.stale_drops(), 1u);
  EXPECT_EQ(s.drops(Stabilizer::DropReason::kUnknownMember), 1u);
  EXPECT_EQ(s.last_drop_reason(), Stabilizer::DropReason::kUnknownMember);
  EXPECT_EQ(s.stable_time(), ts(20));
  // After the membership catches up the same sender is accepted.
  s.extend_membership(6);
  EXPECT_TRUE(s.on_gossip(5, ts(40)));
  EXPECT_EQ(s.stale_drops(), 1u);
}

TEST(Stabilizer, StableTimeIsMonotone) {
  Stabilizer s(0, 2);
  s.on_gossip(0, ts(10));
  s.on_gossip(1, ts(10));
  Timestamp prev = s.stable_time();
  for (uint64_t t = 11; t < 100; ++t) {
    s.on_gossip(t % 2, ts(t));
    EXPECT_GE(s.stable_time(), prev);
    prev = s.stable_time();
  }
}

// ---------------------------------------------------------------------------
// TccPartition protocol (small live cluster)
// ---------------------------------------------------------------------------

class TccClusterTest : public ::testing::Test {
 protected:
  static constexpr size_t kPartitions = 3;

  TccClusterTest()
      : net_(loop_, net::NetworkParams{}, Rng(7)), client_rpc_(net_, 50) {
    TccTopology topo;
    for (size_t p = 0; p < kPartitions; ++p) {
      topo.partitions.push_back(100 + static_cast<net::Address>(p));
    }
    for (size_t p = 0; p < kPartitions; ++p) {
      TccPartitionParams params;
      params.gossip_period = milliseconds(2);
      partitions_.push_back(std::make_unique<TccPartition>(
          net_, topo.partitions[p], static_cast<PartitionId>(p),
          topo.partitions, params));
    }
    client_ = std::make_unique<TccStorageClient>(client_rpc_, topo);
    for (auto& p : partitions_) p->start();
    loop_.run_until(milliseconds(20));  // let stabilization converge
  }

  // Runs a coroutine to completion on the loop.
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

  sim::EventLoop loop_;
  net::Network net_;
  net::RpcNode client_rpc_;
  std::vector<std::unique_ptr<TccPartition>> partitions_;
  std::unique_ptr<TccStorageClient> client_;
};

TEST_F(TccClusterTest, CommitThenReadReturnsValue) {
  run([&]() -> sim::Task<void> {
    const Timestamp cts = *co_await client_->commit(
        1, one_write(5, "hello"), Timestamp::min());
    EXPECT_GT(cts, Timestamp::min());
    co_await sim::sleep_for(loop_, milliseconds(10));  // stabilization
    auto resp = *co_await client_->read(keys_of(5), no_cache(1),
                                       Timestamp::max(), nullptr);
    EXPECT_EQ(resp.entries.size(), 1u);
    EXPECT_EQ(resp.entries[0].status, TccReadResp::Status::kValue);
    EXPECT_EQ(resp.entries[0].value, "hello");
    EXPECT_EQ(resp.entries[0].ts, cts);
  });
}

TEST_F(TccClusterTest, NeverWrittenKeyReadsEmptyInitialVersion) {
  run([&]() -> sim::Task<void> {
    auto resp = *co_await client_->read(keys_of(42), no_cache(1),
                                       Timestamp::max(), nullptr);
    EXPECT_EQ(resp.entries[0].status, TccReadResp::Status::kValue);
    EXPECT_EQ(resp.entries[0].value, "");
    EXPECT_EQ(resp.entries[0].ts, Timestamp::min());
    EXPECT_TRUE(resp.entries[0].open);
  });
}

TEST_F(TccClusterTest, PromiseIsPredecessorOfNextVersion) {
  run([&]() -> sim::Task<void> {
    const Timestamp t1 =
        *co_await client_->commit(1, one_write(5, "v1"), Timestamp::min());
    const Timestamp t2 = *co_await client_->commit(2, one_write(5, "v2"), t1);
    co_await sim::sleep_for(loop_, milliseconds(10));
    // Read below t2: served version v1, promised valid until just before t2.
    auto resp =
        *co_await client_->read(keys_of(5), no_cache(1), t2.prev(), nullptr);
    EXPECT_EQ(resp.entries[0].value, "v1");
    EXPECT_EQ(resp.entries[0].promise, t2.prev());
    EXPECT_FALSE(resp.entries[0].open);
  });
}

TEST_F(TccClusterTest, LatestVersionPromiseIsStableTime) {
  run([&]() -> sim::Task<void> {
    *co_await client_->commit(1, one_write(5, "v1"), Timestamp::min());
    co_await sim::sleep_for(loop_, milliseconds(20));
    auto resp = *co_await client_->read(keys_of(5), no_cache(1),
                                       Timestamp::max(), nullptr);
    EXPECT_TRUE(resp.entries[0].open);
    EXPECT_GE(resp.entries[0].promise, resp.entries[0].ts);
    // Promise never exceeds the reported stable time for open versions.
    EXPECT_LE(resp.entries[0].promise, resp.stable_time);
  });
}

TEST_F(TccClusterTest, UnchangedResponseWhenCachedVersionCurrent) {
  run([&]() -> sim::Task<void> {
    const Timestamp t1 =
        *co_await client_->commit(1, one_write(5, "v1"), Timestamp::min());
    co_await sim::sleep_for(loop_, milliseconds(10));
    auto resp =
        *co_await client_->read(keys_of(5), std::vector<Timestamp>(1, t1), Timestamp::max(), nullptr);
    EXPECT_EQ(resp.entries[0].status, TccReadResp::Status::kUnchanged);
    EXPECT_TRUE(resp.entries[0].value.empty());  // no payload shipped
  });
}

TEST_F(TccClusterTest, CommitTimestampExceedsDependency) {
  run([&]() -> sim::Task<void> {
    const Timestamp dep(500000, 3, 1);  // far ahead of the physical clock
    const Timestamp cts =
        *co_await client_->commit(1, one_write(5, "v"), dep);
    EXPECT_GT(cts, dep);
  });
}

TEST_F(TccClusterTest, MultiPartitionCommitIsAtomicallyVisible) {
  // Keys 0, 1, 2 live on different partitions.  After a multi-partition
  // commit, a snapshot read at the stable time must see all or none.
  run([&]() -> sim::Task<void> {
    std::vector<KeyValue> writes;
    writes.push_back(KeyValue{0, "a0"});
    writes.push_back(KeyValue{1, "a1"});
    writes.push_back(KeyValue{2, "a2"});
    *co_await client_->commit(1, std::move(writes), Timestamp::min());
    // Sample immediately and repeatedly while stabilization catches up.
    for (int i = 0; i < 20; ++i) {
      auto resp = *co_await client_->read(keys_of(0, 1, 2), no_cache(3),
                                         Timestamp::max(), nullptr);
      int seen = 0;
      for (const auto& e : resp.entries) {
        if (!e.value.empty()) ++seen;
      }
      EXPECT_TRUE(seen == 0 || seen == 3) << "torn visibility: " << seen;
      co_await sim::sleep_for(loop_, milliseconds(1));
    }
    auto resp = *co_await client_->read(keys_of(0, 1, 2), no_cache(3),
                                       Timestamp::max(), nullptr);
    for (const auto& e : resp.entries) EXPECT_FALSE(e.value.empty());
  });
}

TEST_F(TccClusterTest, SnapshotReadsAreRepeatable) {
  run([&]() -> sim::Task<void> {
    const Timestamp t1 =
        *co_await client_->commit(1, one_write(5, "v1"), Timestamp::min());
    *co_await client_->commit(2, one_write(5, "v2"), t1);
    co_await sim::sleep_for(loop_, milliseconds(10));
    for (int i = 0; i < 5; ++i) {
      auto resp = *co_await client_->read(keys_of(5), no_cache(1), t1, nullptr);
      EXPECT_EQ(resp.entries[0].value, "v1");  // MVCC: old snapshot stable
    }
  });
}

TEST_F(TccClusterTest, StableTimeAdvancesWithGossip) {
  const Timestamp before = partitions_[0]->stable_time();
  loop_.run_until(loop_.now() + milliseconds(50));
  EXPECT_GT(partitions_[0]->stable_time(), before);
  // Stable time never exceeds any partition's safe time.
  for (auto& p : partitions_) {
    EXPECT_LE(partitions_[0]->stable_time(), p->safe_time());
  }
}

TEST_F(TccClusterTest, PendingPrepareHoldsBackSafeTime) {
  run([&]() -> sim::Task<void> {
    auto resp = co_await client_rpc_.call<TccPrepareResp>(
        partitions_[0]->address(), kTccPrepare,
        TccPrepareReq{77, Timestamp::min()});
    co_await sim::sleep_for(loop_, milliseconds(30));
    // With txn 77 prepared but never committed, partition 0's safe time is
    // pinned just below the prepare timestamp.
    EXPECT_EQ(partitions_[0]->safe_time(), resp.prepare_ts.prev());
    EXPECT_LE(partitions_[0]->stable_time(), resp.prepare_ts.prev());
  });
}

TEST_F(TccClusterTest, GcMakesOldSnapshotsUnreadable) {
  run([&]() -> sim::Task<void> {
    TccPartitionParams params;  // defaults: 30 s window
    const Timestamp t1 =
        *co_await client_->commit(1, one_write(5, "v1"), Timestamp::min());
    const Timestamp t2 = *co_await client_->commit(2, one_write(5, "v2"), t1);
    (void)t2;
    // Force a GC far in the future of both versions.
    partitions_[5 % kPartitions]->store().gc_before(ts(10'000'000));
    auto resp = *co_await client_->read(keys_of(5), no_cache(1), t1, nullptr);
    EXPECT_EQ(resp.entries[0].status, TccReadResp::Status::kMiss);
  });
}

TEST_F(TccClusterTest, PushNotifiesSubscribedCache) {
  // Register a bare endpoint standing in for a cache.
  std::vector<PushMsg> pushes;
  net::RpcNode cache(net_, 60);
  cache.handle_oneway(kTccPush, [&](Buffer b, net::Address) {
    pushes.push_back(decode_message<PushMsg>(b));
  });
  partitions_[5 % kPartitions]->add_subscriber(5, 60);
  run([&]() -> sim::Task<void> {
    *co_await client_->commit(1, one_write(5, "fresh"), Timestamp::min());
    co_await sim::sleep_for(loop_, milliseconds(120));  // > push period
  });
  ASSERT_FALSE(pushes.empty());
  bool saw_value = false;
  for (const auto& p : pushes) {
    for (const auto& u : p.updates) {
      if (u.key == 5 && u.value == "fresh") saw_value = true;
    }
  }
  EXPECT_TRUE(saw_value);
}

TEST_F(TccClusterTest, EmptyPushesCarryStableTimeHeartbeat) {
  std::vector<PushMsg> pushes;
  net::RpcNode cache(net_, 60);
  cache.handle_oneway(kTccPush, [&](Buffer b, net::Address) {
    pushes.push_back(decode_message<PushMsg>(b));
  });
  partitions_[0]->add_subscriber(0, 60);
  loop_.run_until(loop_.now() + milliseconds(200));
  ASSERT_GE(pushes.size(), 2u);
  EXPECT_GT(pushes.back().stable_time, pushes.front().stable_time);
  for (const auto& p : pushes) EXPECT_EQ(p.partition, 0u);
}

sim::Task<void> commit_one_write(TccStorageClient& client, Key k,
                                 bool& committed) {
  committed = (co_await client.commit(1, one_write(k, "fresh"),
                                      Timestamp::min()))
                  .has_value();
}

TEST(TccPartitionPush, ReachesSubscribersInAscendingAddressOrder) {
  sim::EventLoop loop;
  net::NetworkParams np;
  np.jitter = 0;  // equal delays: delivery order is send order
  net::Network net(loop, np, Rng(7));
  TccPartitionParams params;
  params.gossip_period = milliseconds(2);
  TccPartition partition(net, 100, 0, {100}, params);
  net::RpcNode client_rpc(net, 50);
  TccTopology topo;
  topo.partitions = {100};
  TccStorageClient client(client_rpc, topo);
  partition.start();
  std::vector<net::Address> reached;
  std::vector<std::unique_ptr<net::RpcNode>> caches;
  for (net::Address a = 61; a <= 64; ++a) {
    caches.push_back(std::make_unique<net::RpcNode>(net, a));
    caches.back()->handle_oneway(
        kTccPush, [&reached, a](Buffer b, net::Address) {
          for (const auto& u : decode_message<PushMsg>(b).updates) {
            if (u.key == 5) reached.push_back(a);
          }
        });
  }
  // Subscribers register out of address order, one of them twice.
  for (net::Address a : {64u, 61u, 63u, 62u, 63u}) {
    partition.add_subscriber(5, a);
  }
  bool committed = false;
  sim::spawn(commit_one_write(client, 5, committed));
  loop.run_until(milliseconds(150));  // > one push period
  ASSERT_TRUE(committed);
  EXPECT_EQ(reached, (std::vector<net::Address>{61, 62, 63, 64}));
}

// ---------------------------------------------------------------------------
// Eventual store
// ---------------------------------------------------------------------------

class EvClusterTest : public ::testing::Test {
 protected:
  EvClusterTest()
      : net_(loop_, net::NetworkParams{}, Rng(7)), client_rpc_(net_, 50) {
    EvTopology topo;
    topo.replicas = {{100, 101}, {110, 111}};
    std::vector<net::Address> all{100, 101, 110, 111};
    EventualStoreParams params;
    params.gossip_period = milliseconds(5);
    params.cut_period = milliseconds(20);
    uint64_t id = 0;
    for (size_t p = 0; p < 2; ++p) {
      for (size_t r = 0; r < 2; ++r) {
        std::vector<net::Address> peers{topo.replicas[p][1 - r]};
        replicas_.push_back(std::make_unique<EvReplica>(
            net_, topo.replicas[p][r], id++, peers, all, params));
      }
    }
    client_ = std::make_unique<EvStorageClient>(client_rpc_, topo, Rng(3));
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

  sim::EventLoop loop_;
  net::Network net_;
  net::RpcNode client_rpc_;
  std::vector<std::unique_ptr<EvReplica>> replicas_;
  std::unique_ptr<EvStorageClient> client_;
};

TEST_F(EvClusterTest, PutAssignsIncreasingCounters) {
  run([&]() -> sim::Task<void> {
    EvItem item;
    item.key = 4;
    item.payload = "x";
    auto v1 = *co_await client_->put(std::vector<EvItem>(1, item));
    auto v2 = *co_await client_->put(std::vector<EvItem>(1, item));
    EXPECT_GE(v2[0].counter, v1[0].counter);
  });
}

TEST_F(EvClusterTest, GossipPropagatesToPeerReplica) {
  run([&]() -> sim::Task<void> {
    EvItem item;
    item.key = 0;  // partition 0: replicas 100, 101
    item.payload = "gossiped";
    *co_await client_->put(std::vector<EvItem>(1, item));
    co_await sim::sleep_for(loop_, milliseconds(30));
    EXPECT_NE(replicas_[0]->peek(0), nullptr);
    EXPECT_NE(replicas_[1]->peek(0), nullptr);
    EXPECT_EQ(replicas_[1]->peek(0)->payload, "gossiped");
  });
}

TEST_F(EvClusterTest, LwwMergeKeepsHighestVersion) {
  EvItem low;
  low.key = 0;
  low.version = EvVersion{5, 1};
  low.payload = "low";
  EvItem high;
  high.key = 0;
  high.version = EvVersion{9, 1};
  high.payload = "high";
  replicas_[0]->preload(high);
  replicas_[0]->preload(low);  // stale arrival
  EXPECT_EQ(replicas_[0]->peek(0)->payload, "high");
}

TEST_F(EvClusterTest, LwwTieBrokenByWriter) {
  EvItem a;
  a.key = 0;
  a.version = EvVersion{5, 1};
  a.payload = "writer1";
  EvItem b;
  b.key = 0;
  b.version = EvVersion{5, 2};
  b.payload = "writer2";
  replicas_[0]->preload(a);
  replicas_[0]->preload(b);
  EXPECT_EQ(replicas_[0]->peek(0)->payload, "writer2");
}

TEST_F(EvClusterTest, StaleReadsArePossibleBeforeGossip) {
  run([&]() -> sim::Task<void> {
    EvItem item;
    item.key = 0;
    item.payload = "fresh";
    *co_await client_->put(std::vector<EvItem>(1, item));
    // Immediately after the put, at most one replica has the write.
    const bool at0 = replicas_[0]->peek(0) != nullptr;
    const bool at1 = replicas_[1]->peek(0) != nullptr;
    EXPECT_NE(at0, at1);
  });
}

TEST_F(EvClusterTest, GlobalCutAdvances) {
  run([&]() -> sim::Task<void> {
    co_await sim::sleep_for(loop_, milliseconds(200));
    EvItem item;
    item.key = 0;
    item.payload = "x";
    *co_await client_->put(std::vector<EvItem>(1, item));
    const SimTime cut = client_->global_cut();
    EXPECT_GT(cut, 0);
    EXPECT_LE(cut, loop_.now());
  });
}

TEST_F(EvClusterTest, SubscribedCacheReceivesPush) {
  std::vector<EvGossipMsg> pushes;
  net::RpcNode cache(net_, 60);
  cache.handle_oneway(kEvPush, [&](Buffer b, net::Address) {
    pushes.push_back(decode_message<EvGossipMsg>(b));
  });
  replicas_[0]->add_subscriber(0, 60);
  run([&]() -> sim::Task<void> {
    EvItem item;
    item.key = 0;
    item.payload = "pushed";
    // Put repeatedly so the accepting replica is eventually replica 100.
    for (int i = 0; i < 4; ++i) *co_await client_->put(std::vector<EvItem>(1, item));
    co_await sim::sleep_for(loop_, milliseconds(150));
  });
  ASSERT_FALSE(pushes.empty());
  EXPECT_EQ(pushes[0].items[0].key, 0u);
}

}  // namespace
}  // namespace faastcc::storage
