// Unit tests for the client libraries: snapshot-interval algebra (Eq. 1-3),
// FaaSTCC context/session handling, HydroCache context handling, and the
// eventual baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <tuple>
#include <unordered_set>

#include "client/eventual_client.h"
#include "client/faastcc_client.h"
#include "client/hydro_client.h"
#include "client/snapshot_interval.h"
#include "common/rng.h"
#include "storage/eventual_store.h"

namespace faastcc::client {
namespace {

Timestamp ts(uint64_t us) { return Timestamp(us, 0, 0); }

// ---------------------------------------------------------------------------
// SnapshotInterval — the paper's Eq. 1/2/3 and the §4.5 case analysis.
// ---------------------------------------------------------------------------

TEST(SnapshotInterval, FullAdmitsEverything) {
  const auto si = SnapshotInterval::full();
  EXPECT_TRUE(si.admits(ts(1), ts(1)));
  EXPECT_TRUE(si.admits(Timestamp::max().prev(), Timestamp::max()));
  EXPECT_FALSE(si.empty());
}

TEST(SnapshotInterval, Section45Case1_StalePromiseRejected) {
  // Interval [80, 120]; cached <k', 50, 60>: promise 60 < 80 -> must
  // refresh from storage.
  SnapshotInterval si{ts(80), ts(120)};
  EXPECT_FALSE(si.admits(ts(50), ts(60)));
}

TEST(SnapshotInterval, Section45Case2_PromiseCoversLow) {
  // Cached <k', 50, 90>: consistent with [80, 120].
  SnapshotInterval si{ts(80), ts(120)};
  EXPECT_TRUE(si.admits(ts(50), ts(90)));
  si.narrow(ts(50), ts(90));
  EXPECT_EQ(si.low, ts(80));
  EXPECT_EQ(si.high, ts(90));
}

TEST(SnapshotInterval, Section45Case3_NewerVersionWithinPromise) {
  // Cached <k', 90, 130>: consistent with [80, 120].
  SnapshotInterval si{ts(80), ts(120)};
  EXPECT_TRUE(si.admits(ts(90), ts(130)));
  si.narrow(ts(90), ts(130));
  EXPECT_EQ(si.low, ts(90));
  EXPECT_EQ(si.high, ts(120));
}

TEST(SnapshotInterval, Section45Case4_TooNewRejected) {
  // Cached <k', 130, 140>: version beyond the promise horizon of k.
  SnapshotInterval si{ts(80), ts(120)};
  EXPECT_FALSE(si.admits(ts(130), ts(140)));
}

TEST(SnapshotInterval, NarrowingIsMonotone) {
  SnapshotInterval si = SnapshotInterval::full();
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const SnapshotInterval before = si;
    const Timestamp v(rng.next_below(1000) + 1, 0, 0);
    const Timestamp p(v.physical_us() + rng.next_below(1000), 1, 0);
    if (!si.admits(v, p)) continue;
    si.narrow(v, p);
    EXPECT_GE(si.low, before.low);
    EXPECT_LE(si.high, before.high);
    EXPECT_FALSE(si.empty());
  }
}

TEST(SnapshotInterval, MergeIsIntersection) {
  const SnapshotInterval a{ts(10), ts(100)};
  const SnapshotInterval b{ts(50), ts(200)};
  std::vector<SnapshotInterval> parents{a, b};
  const auto m = SnapshotInterval::merge(parents);
  EXPECT_EQ(m.low, ts(50));
  EXPECT_EQ(m.high, ts(100));
}

TEST(SnapshotInterval, MergeDisjointIsEmpty) {
  const SnapshotInterval a{ts(10), ts(20)};
  const SnapshotInterval b{ts(30), ts(40)};
  std::vector<SnapshotInterval> parents{a, b};
  EXPECT_TRUE(SnapshotInterval::merge(parents).empty());
}

TEST(SnapshotInterval, MergeSingleIsIdentity) {
  const SnapshotInterval a{ts(10), ts(20)};
  std::vector<SnapshotInterval> parents{a};
  EXPECT_EQ(SnapshotInterval::merge(parents), a);
}

TEST(SnapshotInterval, EncodesToSixteenBytes) {
  // The paper's headline metadata claim (Fig. 5): two timestamps.
  const SnapshotInterval si{ts(1), ts(2)};
  EXPECT_EQ(encoded_size(si), 16u);
}

TEST(SnapshotInterval, RoundTripsThroughCodec) {
  const SnapshotInterval si{ts(123), ts(456)};
  const Buffer b = encode_message(si);
  EXPECT_EQ(decode_message<SnapshotInterval>(b), si);
}

TEST(SnapshotInterval, FixedIntervalAdmitsOnlyCoveringVersions) {
  const auto si = SnapshotInterval::fixed(ts(100));
  EXPECT_TRUE(si.admits(ts(100), ts(100)));
  EXPECT_TRUE(si.admits(ts(50), ts(150)));
  EXPECT_FALSE(si.admits(ts(101), ts(200)));  // version too new
  EXPECT_FALSE(si.admits(ts(50), ts(99)));    // promise too old
}

// ---------------------------------------------------------------------------
// FaaSTCC context & merge (Alg. 1 lines 2-12).
// ---------------------------------------------------------------------------

TEST(FaasTccContext, RoundTripsThroughCodec) {
  FaasTccContext c;
  c.interval = SnapshotInterval{ts(5), ts(10)};
  c.dep_ts = ts(3);
  c.snapshot_fixed = true;
  c.write_set[7] = "seven";
  c.write_set[9] = "nine";
  const auto d = decode_message<FaasTccContext>(encode_message(c));
  EXPECT_EQ(d.interval, c.interval);
  EXPECT_EQ(d.dep_ts, c.dep_ts);
  EXPECT_TRUE(d.snapshot_fixed);
  EXPECT_EQ(d.write_set.at(7), "seven");
  EXPECT_EQ(d.write_set.size(), 2u);
}

TEST(FaasTccContext, RejectsUnknownWireVersion) {
  FaasTccContext c;
  c.write_set[7] = "seven";
  Buffer b = encode_message(c);
  ASSERT_FALSE(b.empty());
  EXPECT_EQ(b[0], FaasTccContext::kWireVersion);
  b[0] = FaasTccContext::kWireVersion + 1;
  EXPECT_THROW(decode_message<FaasTccContext>(b), CodecError);
}

TEST(HydroContext, RejectsUnknownWireVersion) {
  HydroContext c;
  c.write_set[7] = "seven";
  Buffer b = encode_message(c);
  ASSERT_FALSE(b.empty());
  EXPECT_EQ(b[0], HydroContext::kWireVersion);
  b[0] = HydroContext::kWireVersion + 1;
  EXPECT_THROW(decode_message<HydroContext>(b), CodecError);
}

TEST(FaasTccSession, EmptyDecodesToMin) {
  EXPECT_EQ(decode_faastcc_session(Buffer{}), Timestamp::min());
}

TEST(FaasTccSession, RoundTrips) {
  const Buffer b = encode_faastcc_session(ts(77));
  EXPECT_EQ(decode_faastcc_session(b), ts(77));
}

// The adapter needs live network plumbing only for reads/commits; open()
// and merge logic are testable with a dummy RPC endpoint.
class FaasTccOpenTest : public ::testing::Test {
 protected:
  FaasTccOpenTest()
      : net_(loop_, net::NetworkParams{}, Rng(1)),
        rpc_(net_, 1),
        adapter_(rpc_, 2, storage::TccTopology{{100}}, FaasTccConfig{},
                 nullptr) {}

  sim::EventLoop loop_;
  net::Network net_;
  net::RpcNode rpc_;
  FaasTccAdapter adapter_;
  TxnInfo info_;
};

TEST_F(FaasTccOpenTest, RootStartsWithFullInterval) {
  auto txn = adapter_.open(info_, {}, Buffer{});
  ASSERT_NE(txn, nullptr);
  auto* t = static_cast<FaasTccTxn*>(txn.get());
  EXPECT_EQ(t->interval(), SnapshotInterval::full());
}

TEST_F(FaasTccOpenTest, RootTakesSessionDependency) {
  auto txn = adapter_.open(info_, {}, encode_faastcc_session(ts(55)));
  ASSERT_NE(txn, nullptr);
  // Session dep surfaces in the exported context.
  const auto ctx =
      decode_message<FaasTccContext>(txn->export_context());
  EXPECT_EQ(ctx.dep_ts, ts(55));
}

TEST_F(FaasTccOpenTest, MergeIntersectsParentIntervals) {
  FaasTccContext a;
  a.interval = SnapshotInterval{ts(10), ts(100)};
  FaasTccContext b;
  b.interval = SnapshotInterval{ts(40), ts(80)};
  auto txn = adapter_.open(
      info_, {encode_message(a), encode_message(b)}, Buffer{});
  ASSERT_NE(txn, nullptr);
  auto* t = static_cast<FaasTccTxn*>(txn.get());
  EXPECT_EQ(t->interval(), (SnapshotInterval{ts(40), ts(80)}));
}

TEST_F(FaasTccOpenTest, IncompatibleParentsAbort) {
  FaasTccContext a;
  a.interval = SnapshotInterval{ts(10), ts(20)};
  FaasTccContext b;
  b.interval = SnapshotInterval{ts(30), ts(40)};
  auto txn = adapter_.open(
      info_, {encode_message(a), encode_message(b)}, Buffer{});
  EXPECT_EQ(txn, nullptr);
}

TEST_F(FaasTccOpenTest, MergeUnionsWriteSets) {
  FaasTccContext a;
  a.write_set[1] = "one";
  FaasTccContext b;
  b.write_set[2] = "two";
  auto txn = adapter_.open(
      info_, {encode_message(a), encode_message(b)}, Buffer{});
  ASSERT_NE(txn, nullptr);
  const auto ctx = decode_message<FaasTccContext>(txn->export_context());
  EXPECT_EQ(ctx.write_set.size(), 2u);
}

TEST_F(FaasTccOpenTest, MetadataIsSixteenBytes) {
  auto txn = adapter_.open(info_, {}, Buffer{});
  EXPECT_EQ(txn->metadata_bytes(), 16u);
}

TEST_F(FaasTccOpenTest, WritesReadBackWithinTxn) {
  auto txn = adapter_.open(info_, {}, Buffer{});
  txn->write(5, "mine");
  bool done = false;
  sim::spawn([](FunctionTxn& t, bool& flag) -> sim::Task<void> {
    auto vals = co_await t.read(std::vector<Key>(1, Key{5}));
    EXPECT_TRUE(vals.has_value());
    EXPECT_EQ((*vals)[0], "mine");  // served from the write set, no RPC
    flag = true;
  }(*txn, done));
  loop_.run();
  EXPECT_TRUE(done);
}

// ---------------------------------------------------------------------------
// Hydro context / session.
// ---------------------------------------------------------------------------

class HydroOpenTest : public ::testing::Test {
 protected:
  HydroOpenTest()
      : net_(loop_, net::NetworkParams{}, Rng(1)),
        rpc_(net_, 1),
        adapter_(rpc_, 2, storage::EvTopology{{{100}}}, Rng(3), HydroConfig{},
                 nullptr) {}

  sim::EventLoop loop_;
  net::Network net_;
  net::RpcNode rpc_;
  HydroAdapter adapter_;
  TxnInfo info_;
};

TEST_F(HydroOpenTest, RootInheritsSessionCausalPast) {
  HydroSession s;
  s.lamport = 42;
  s.deps.require(7, 9, 100, 2);
  auto txn = adapter_.open(info_, {}, encode_message(s));
  ASSERT_NE(txn, nullptr);
  const auto ctx = decode_message<HydroContext>(txn->export_context());
  EXPECT_EQ(ctx.lamport, 42u);
  cache::Dep d;
  ASSERT_TRUE(ctx.deps.lookup(7, d));
  EXPECT_EQ(d.counter, 9u);
}

TEST_F(HydroOpenTest, ParentsMergeDependencies) {
  HydroContext a;
  a.deps.mark_read(1, 5, 100);
  a.lamport = 10;
  HydroContext b;
  b.deps.require(2, 7, 100, 1);
  b.lamport = 20;
  auto txn = adapter_.open(
      info_, {encode_message(a), encode_message(b)}, Buffer{});
  ASSERT_NE(txn, nullptr);
  const auto ctx = decode_message<HydroContext>(txn->export_context());
  EXPECT_EQ(ctx.lamport, 20u);
  cache::Dep d;
  EXPECT_TRUE(ctx.deps.lookup(1, d));
  EXPECT_TRUE(ctx.deps.lookup(2, d));
}

TEST_F(HydroOpenTest, ConflictingParentReadsAbort) {
  HydroContext a;
  a.deps.mark_read(1, 5, 100);
  HydroContext b;
  b.deps.mark_read(1, 7, 120);  // same key, different version read
  auto txn = adapter_.open(
      info_, {encode_message(a), encode_message(b)}, Buffer{});
  EXPECT_EQ(txn, nullptr);
}

TEST_F(HydroOpenTest, AgreeingParentReadsMerge) {
  HydroContext a;
  a.deps.mark_read(1, 5, 100);
  HydroContext b;
  b.deps.mark_read(1, 5, 100);
  auto txn = adapter_.open(
      info_, {encode_message(a), encode_message(b)}, Buffer{});
  EXPECT_NE(txn, nullptr);
}

TEST_F(HydroOpenTest, StaticRestrictionPrunesMetadata) {
  info_.is_static = true;
  info_.declared_read_set = {1, 2};
  info_.declared_write_set = {3};
  HydroContext parent;
  for (Key k = 0; k < 100; ++k) parent.deps.require(k, 1, 100, 1);
  auto txn = adapter_.open(info_, {encode_message(parent)}, Buffer{});
  ASSERT_NE(txn, nullptr);
  // Only keys 1, 2, 3 remain relevant.
  EXPECT_LE(txn->metadata_bytes(), 4 + 3 * cache::kDepWireBytes);
}

// Regression: the declared-set prune once dropped read markers outside the
// declared set, so a later conflict on such a read went undetected.  Read
// markers ship whatever the declared set says.
TEST_F(HydroOpenTest, StaticPruneKeepsReadMarkersOutsideDeclaredSet) {
  info_.is_static = true;
  info_.declared_read_set = {1};
  HydroContext parent;
  parent.deps.mark_read(2, 3, 50);    // read, outside the declared set
  parent.deps.require(5, 7, 100, 1);  // plain dependency outside it
  parent.deps.require(1, 4, 100, 1);  // in the set
  auto txn = adapter_.open(info_, {encode_message(parent)}, Buffer{});
  ASSERT_NE(txn, nullptr);
  const auto ctx = decode_message<HydroContext>(txn->export_context());
  cache::Dep d;
  ASSERT_TRUE(ctx.deps.lookup(2, d)) << "read marker pruned";
  EXPECT_TRUE(d.read);
  EXPECT_EQ(d.counter, 3u);
  EXPECT_TRUE(ctx.deps.lookup(1, d));
  EXPECT_FALSE(ctx.deps.lookup(5, d));
}

TEST_F(HydroOpenTest, DynamicShipsFullMetadata) {
  HydroContext parent;
  for (Key k = 0; k < 100; ++k) {
    parent.deps.require(k, 1, milliseconds(1000), 1);
  }
  auto txn = adapter_.open(info_, {encode_message(parent)}, Buffer{});
  ASSERT_NE(txn, nullptr);
  EXPECT_GE(txn->metadata_bytes(), 100 * cache::kDepWireBytes);
}

// The two-step export that export_context() streams in one pass, kept as
// the reference: rebuild a pruned copy of the dependency map entry by
// entry (GC for dynamic transactions, GC plus declared-set pruning for
// static ones; read markers exempt from both), then encode the context
// around it.
Buffer reference_export(const HydroContext& ctx, const TxnInfo& info,
                        SimTime horizon) {
  std::unordered_set<Key> relevant(info.declared_read_set.begin(),
                                   info.declared_read_set.end());
  relevant.insert(info.declared_write_set.begin(),
                  info.declared_write_set.end());
  HydroContext out;
  ctx.deps.for_each([&](Key k, const cache::Dep& d) {
    if (d.read) {
      out.deps.mark_read(k, d.counter, d.written_at);
    } else if (d.written_at >= horizon &&
               (!info.is_static || relevant.count(k) != 0)) {
      out.deps.require(k, d.counter, d.written_at, d.level);
    }
  });
  out.lamport = ctx.lamport;
  out.global_cut = ctx.global_cut;
  out.write_set = ctx.write_set;
  return encode_message(out);
}

class HydroExport : public HydroOpenTest {};

TEST_F(HydroExport, OnePassMatchesReference) {
  // now = 100 s and a 15 s GC window: the horizon is min(global_cut, 85 s).
  loop_.run_until(seconds(100));
  const SimTime now_minus_window = seconds(100) - HydroConfig{}.dep_gc_window;
  constexpr Key kKeys = 400;
  Rng rng(77);
  auto random_deps = [&](cache::DepMap& m, size_t n, bool any_reads) {
    for (size_t i = 0; i < n; ++i) {
      const Key k = rng.next_below(kKeys);
      const uint64_t c = 1 + rng.next_below(50);
      const auto at = static_cast<SimTime>(rng.next_below(seconds(100)));
      if (any_reads && rng.next_bool(0.2)) {
        m.mark_read(k, c, at);
      } else {
        m.require(k, c, at, static_cast<uint8_t>(rng.next_below(3)));
      }
    }
  };
  enum Shape { kDecodedWithOverlay, kLocal, kEmpty, kAllCollected };
  for (int trial = 0; trial < 200; ++trial) {
    const auto shape = static_cast<Shape>(trial % 4);
    HydroContext ctx;
    ctx.lamport = rng.next_below(1000);
    ctx.global_cut = static_cast<SimTime>(rng.next_below(seconds(100)));
    for (size_t i = rng.next_below(4); i > 0; --i) {
      ctx.write_set[rng.next_below(kKeys)] = "w" + std::to_string(i);
    }
    switch (shape) {
      case kDecodedWithOverlay: {
        random_deps(ctx.deps, 300, true);
        ctx = decode_message<HydroContext>(encode_message(ctx));
        random_deps(ctx.deps, rng.next_below(40), true);  // the overlay
        break;
      }
      case kLocal:
        random_deps(ctx.deps, 300, true);
        break;
      case kEmpty:
        break;
      case kAllCollected:
        // Everything written before the horizon, nothing read.
        ctx.global_cut = seconds(100);
        for (Key k = 0; k < 50; ++k) ctx.deps.require(k, 1, k, 1);
        break;
    }
    TxnInfo info;
    info.is_static = rng.next_bool(0.5);
    for (Key k = 0; k < kKeys; ++k) {
      if (rng.next_bool(0.1)) info.declared_read_set.push_back(k);
      if (rng.next_bool(0.05)) info.declared_write_set.push_back(k);
    }
    const SimTime horizon = std::min(ctx.global_cut, now_minus_window);
    const Buffer want = reference_export(ctx, info, horizon);
    HydroTxn txn(adapter_, info, ctx);
    const size_t scanned = txn.metadata_bytes();  // before any export
    EXPECT_EQ(txn.export_context(), want) << "trial " << trial;
    const auto shipped = decode_message<HydroContext>(want);
    EXPECT_EQ(scanned, shipped.deps.wire_bytes()) << "trial " << trial;
    EXPECT_EQ(txn.metadata_bytes(), shipped.deps.wire_bytes())
        << "trial " << trial;
    if (shape == kAllCollected) {
      EXPECT_TRUE(shipped.deps.empty()) << "trial " << trial;
    }
  }
}

// metadata_bytes() reuses the last export's count only while the advancing
// GC horizon has not passed an entry that export kept.
TEST_F(HydroExport, MetadataBytesFollowTheHorizon) {
  HydroContext ctx;
  ctx.global_cut = seconds(1000);  // the horizon is now - 15 s
  for (Key k = 1; k <= 50; ++k) ctx.deps.require(k, 1, seconds(k), 1);
  ctx.deps.mark_read(99, 1, 0);  // read markers never age out
  HydroTxn txn(adapter_, info_, ctx);
  auto expect_bytes = [&](size_t entries) {
    EXPECT_EQ(txn.metadata_bytes(), 4 + entries * cache::kDepWireBytes)
        << "at " << loop_.now();
  };
  loop_.run_until(seconds(19) + milliseconds(500));  // keys 5..50 survive
  txn.export_context();
  expect_bytes(46 + 1);
  loop_.run_until(seconds(20));  // horizon 5 s: key 5 still kept
  expect_bytes(46 + 1);
  loop_.run_until(seconds(40));  // horizon 25 s: keys 25..50
  expect_bytes(26 + 1);
}

// The session build encode_hydro_session() streams, kept as the
// reference: collect the surviving past into a map as level-2 history,
// apply each write as a level-1 requirement, then encode.
Buffer reference_session(const HydroContext& ctx, uint64_t lamport,
                         SimTime horizon,
                         const std::vector<storage::EvVersion>& versions,
                         SimTime now) {
  HydroSession s;
  s.lamport = lamport;
  s.global_cut = ctx.global_cut;
  ctx.deps.for_each([&](Key k, const cache::Dep& d) {
    if (d.written_at >= horizon) s.deps.require(k, d.counter, d.written_at, 2);
  });
  size_t i = 0;
  for (const auto& [k, v] : ctx.write_set) {
    s.deps.require(k, versions[i++].counter, now, 1);
  }
  return encode_message(s);
}

TEST_F(HydroExport, SessionMatchesReference) {
  constexpr Key kKeys = 200;
  Rng rng(91);
  for (int trial = 0; trial < 200; ++trial) {
    HydroContext ctx;
    ctx.global_cut = static_cast<SimTime>(rng.next_below(1000));
    for (int i = 0; i < 150; ++i) {
      const Key k = rng.next_below(kKeys);
      const uint64_t c = 1 + rng.next_below(20);
      const auto at = static_cast<SimTime>(rng.next_below(1000));
      if (rng.next_bool(0.2)) {
        ctx.deps.mark_read(k, c, at);
      } else {
        ctx.deps.require(k, c, at, static_cast<uint8_t>(rng.next_below(3)));
      }
    }
    if (trial % 2 == 0) {  // raw-backed, with an overlay on top
      ctx = decode_message<HydroContext>(encode_message(ctx));
      ctx.deps.require(kKeys + 1, 1, 999, 1);
    }
    const bool read_only = trial % 5 == 0;
    std::vector<storage::EvVersion> versions;
    if (!read_only) {
      for (size_t i = 1 + rng.next_below(6); i > 0; --i) {
        ctx.write_set[rng.next_below(kKeys + 4)] = "w";
      }
      for (size_t i = 0; i < ctx.write_set.size(); ++i) {
        versions.push_back(storage::EvVersion{1 + rng.next_below(20), 1});
      }
    }
    const auto horizon = static_cast<SimTime>(rng.next_below(1000));
    EXPECT_EQ(encode_hydro_session(ctx, 7, horizon, versions, 5000),
              reference_session(ctx, 7, horizon, versions, 5000))
        << "trial " << trial;
  }
}

// Commits against a one-replica eventual store, then reads back the
// dependency list stored with each written key.
class HydroCommitTest : public ::testing::Test {
 protected:
  HydroCommitTest()
      : net_(loop_, net::NetworkParams{}, Rng(1)),
        rpc_(net_, 1),
        replica_(net_, 100, 0, {}, {100}, storage::EventualStoreParams{}) {
    replica_.start();
  }

  // Commits `ctx` with `writes` under `config`; returns each written key's
  // stored list as (key, counter, level) triples.
  std::map<Key, std::vector<std::tuple<Key, uint64_t, int>>> commit(
      HydroConfig config, HydroContext ctx, const std::vector<Key>& writes) {
    HydroAdapter adapter(rpc_, 2, storage::EvTopology{{{100}}}, Rng(3), config,
                         nullptr);
    HydroTxn txn(adapter, TxnInfo{}, std::move(ctx));
    for (Key k : writes) txn.write(k, "w");
    bool done = false;
    sim::spawn([](HydroTxn& t, bool& flag) -> sim::Task<void> {
      EXPECT_TRUE((co_await t.commit()).has_value());
      flag = true;
    }(txn, done));
    while (!done && loop_.now() < seconds(5)) {
      loop_.run_until(loop_.now() + milliseconds(1));
    }
    EXPECT_TRUE(done);
    std::map<Key, std::vector<std::tuple<Key, uint64_t, int>>> out;
    for (Key k : writes) {
      const storage::EvItem* item = replica_.peek(k);
      EXPECT_NE(item, nullptr) << "key " << k;
      if (item == nullptr) continue;
      BufReader r(reinterpret_cast<const uint8_t*>(item->payload.data()),
                  item->payload.size());
      const auto stored = decode_from<cache::HydroStored>(r);
      for (const cache::StoredDep& d : stored.deps) {
        out[k].emplace_back(d.key, d.counter, d.level);
      }
    }
    return out;
  }

  sim::EventLoop loop_;
  net::Network net_;
  net::RpcNode rpc_;
  storage::EvReplica replica_;
};

TEST_F(HydroCommitTest, StoredListsInterleaveSiblingsInKeyOrder) {
  HydroContext ctx;
  ctx.lamport = 20;
  ctx.deps.mark_read(2, 5, 100);
  ctx.deps.require(4, 6, 100, 1);
  ctx.deps.mark_read(6, 7, 100);
  ctx.deps.require(8, 8, 100, 1);
  ctx.deps.require(9, 9, 100, 2);  // validation-only: never re-stored
  ctx.deps.mark_read(10, 10, 100);
  ctx.deps.require(7, 3, 100, 1);  // superseded by this commit's write
  const auto lists = commit(HydroConfig{}, ctx, {3, 7, 11});
  using L = std::vector<std::tuple<Key, uint64_t, int>>;
  // The commit's counter is lamport + 1 = 21; siblings sit at level 0.
  EXPECT_EQ(lists.at(3),
            (L{{2, 5, 0}, {4, 6, 1}, {6, 7, 0}, {7, 21, 0}, {8, 8, 1},
               {10, 10, 0}, {11, 21, 0}}));
  EXPECT_EQ(lists.at(7),
            (L{{2, 5, 0}, {3, 21, 0}, {4, 6, 1}, {6, 7, 0}, {8, 8, 1},
               {10, 10, 0}, {11, 21, 0}}));
  EXPECT_EQ(lists.at(11),
            (L{{2, 5, 0}, {3, 21, 0}, {4, 6, 1}, {6, 7, 0}, {7, 21, 0},
               {8, 8, 1}, {10, 10, 0}}));
}

TEST_F(HydroCommitTest, CappedStoredListsStayKeySorted) {
  // Thirty level-1 entries with descending recency by key, and reads of
  // keys 25 and 5.  A cap of 4 keeps both reads, then the two most recent
  // level-1 entries (keys 1 and 2), and re-sorts them by key.
  HydroContext ctx;
  ctx.lamport = 50;
  for (Key k = 1; k <= 30; ++k) {
    ctx.deps.require(k, k, seconds(100) - static_cast<SimTime>(k), 1);
  }
  ctx.deps.mark_read(25, 25, 0);
  ctx.deps.mark_read(5, 5, 0);
  HydroConfig config;
  config.stored_dep_cap = 4;
  const auto lists = commit(config, ctx, {0, 3, 40});
  using L = std::vector<std::tuple<Key, uint64_t, int>>;
  EXPECT_EQ(lists.at(3), (L{{0, 51, 0}, {1, 1, 1}, {2, 2, 1}, {5, 5, 0},
                            {25, 25, 0}, {40, 51, 0}}));
  for (const auto& [k, list] : lists) {
    EXPECT_TRUE(std::is_sorted(list.begin(), list.end())) << "key " << k;
  }
}

TEST(HydroSessionCodec, RoundTrips) {
  HydroSession s;
  s.lamport = 5;
  s.global_cut = 123;
  s.deps.require(1, 2, 3, 1);
  const auto d = decode_message<HydroSession>(encode_message(s));
  EXPECT_EQ(d.lamport, 5u);
  EXPECT_EQ(d.global_cut, 123);
  EXPECT_EQ(d.deps.size(), 1u);
}

// ---------------------------------------------------------------------------
// Eventual baseline.
// ---------------------------------------------------------------------------

TEST(EventualClient, ContextCarriesOnlyWrites) {
  sim::EventLoop loop;
  net::Network net(loop, net::NetworkParams{}, Rng(1));
  net::RpcNode rpc(net, 1);
  EventualAdapter adapter(rpc, 2, storage::EvTopology{{{100}}}, Rng(3),
                          nullptr);
  TxnInfo info;
  auto txn = adapter.open(info, {}, Buffer{});
  txn->write(9, "w");
  EXPECT_EQ(txn->metadata_bytes(), 0u);
  const auto ctx = decode_message<EventualContext>(txn->export_context());
  EXPECT_EQ(ctx.write_set.at(9), "w");

  // A child inherits the parent's writes (read-your-writes downstream).
  auto child = adapter.open(info, {txn->export_context()}, Buffer{});
  bool done = false;
  sim::spawn([](FunctionTxn& t, bool& flag) -> sim::Task<void> {
    auto vals = co_await t.read(std::vector<Key>(1, Key{9}));
    EXPECT_EQ((*vals)[0], "w");
    flag = true;
  }(*child, done));
  loop.run();
  EXPECT_TRUE(done);
}

}  // namespace
}  // namespace faastcc::client
