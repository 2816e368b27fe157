// Round-trip property tests for every wire message: decode(encode(x)) == x
// under randomized contents, plus exact wire-size checks for the messages
// whose sizes feed the paper's byte metrics.
#include <gtest/gtest.h>

#include "cache/cache_messages.h"
#include "client/eventual_client.h"
#include "client/faastcc_client.h"
#include "client/hydro_client.h"
#include "common/rng.h"
#include "faas/messages.h"
#include "storage/messages.h"
#include "workload/workload.h"

namespace faastcc {
namespace {

// The allocation-free CountingWriter pass (encoded_size) must agree
// byte-for-byte with a real encode, and every hand-written size_hint()
// must be exact: pooled buffers are sized from these, so a short count
// would mean a mid-encode reallocation on the hot path.
template <typename M>
void check_wire_size(const M& m) {
  const size_t counted = encoded_size(m);
  EXPECT_EQ(counted, encode_message(m).size());
  EXPECT_EQ(wire_size_hint(m), counted);
  if constexpr (requires(const M& x) { x.size_hint(); }) {
    EXPECT_EQ(m.size_hint(), counted);
  }
}

Value random_value(Rng& rng, size_t max_len = 32) {
  std::string v;
  const size_t n = rng.next_below(max_len + 1);
  for (size_t i = 0; i < n; ++i) {
    v.push_back(static_cast<char>(rng.next_below(256)));
  }
  return Value(std::move(v));
}

Timestamp random_ts(Rng& rng) { return Timestamp(rng.next_u64()); }

// ---------------------------------------------------------------------------
// Storage messages.
// ---------------------------------------------------------------------------

TEST(MessageRoundTrip, VersionedValue) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    storage::VersionedValue v;
    v.key = rng.next_u64();
    v.value = random_value(rng);
    v.ts = random_ts(rng);
    v.promise = random_ts(rng);
    check_wire_size(v);
    const auto d = decode_message<storage::VersionedValue>(encode_message(v));
    EXPECT_EQ(d.key, v.key);
    EXPECT_EQ(d.value, v.value);
    EXPECT_EQ(d.ts, v.ts);
    EXPECT_EQ(d.promise, v.promise);
  }
}

TEST(MessageRoundTrip, TccReadReqAndResp) {
  Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    storage::TccReadReq q;
    q.snapshot = random_ts(rng);
    const size_t n = rng.next_below(8);
    for (size_t j = 0; j < n; ++j) {
      q.keys.push_back(rng.next_u64());
      q.cached_ts.push_back(random_ts(rng));
    }
    check_wire_size(q);
    const auto dq = decode_message<storage::TccReadReq>(encode_message(q));
    EXPECT_EQ(dq.snapshot, q.snapshot);
    EXPECT_EQ(dq.keys, q.keys);
    EXPECT_EQ(dq.cached_ts, q.cached_ts);

    storage::TccReadResp resp;
    resp.stable_time = random_ts(rng);
    for (size_t j = 0; j < n; ++j) {
      storage::TccReadResp::Entry e;
      e.key = rng.next_u64();
      e.status = static_cast<storage::TccReadResp::Status>(rng.next_below(3));
      if (e.status != storage::TccReadResp::Status::kMiss) {
        e.ts = random_ts(rng);
        e.promise = random_ts(rng);
        e.open = rng.next_bool(0.5);
      }
      if (e.status == storage::TccReadResp::Status::kValue) {
        e.value = random_value(rng);
      }
      resp.entries.push_back(std::move(e));
    }
    check_wire_size(resp);
    const auto dr = decode_message<storage::TccReadResp>(encode_message(resp));
    EXPECT_EQ(dr.stable_time, resp.stable_time);
    ASSERT_EQ(dr.entries.size(), resp.entries.size());
    for (size_t j = 0; j < resp.entries.size(); ++j) {
      EXPECT_EQ(dr.entries[j].key, resp.entries[j].key);
      EXPECT_EQ(dr.entries[j].status, resp.entries[j].status);
      EXPECT_EQ(dr.entries[j].value, resp.entries[j].value);
      if (resp.entries[j].status != storage::TccReadResp::Status::kMiss) {
        EXPECT_EQ(dr.entries[j].ts, resp.entries[j].ts);
        EXPECT_EQ(dr.entries[j].promise, resp.entries[j].promise);
        EXPECT_EQ(dr.entries[j].open, resp.entries[j].open);
      }
    }
  }
}

TEST(MessageRoundTrip, PrepareCommitAbort) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    storage::TccPrepareReq p;
    p.txn = rng.next_u64();
    p.dep_ts = random_ts(rng);
    p.si_mode = rng.next_bool(0.5);
    p.snapshot_ts = random_ts(rng);
    for (size_t j = 0; j < rng.next_below(5); ++j) {
      p.write_keys.push_back(rng.next_u64());
    }
    check_wire_size(p);
    const auto dp = decode_message<storage::TccPrepareReq>(encode_message(p));
    EXPECT_EQ(dp.txn, p.txn);
    EXPECT_EQ(dp.dep_ts, p.dep_ts);
    EXPECT_EQ(dp.si_mode, p.si_mode);
    EXPECT_EQ(dp.snapshot_ts, p.snapshot_ts);
    EXPECT_EQ(dp.write_keys, p.write_keys);

    storage::TccPrepareResp pr{random_ts(rng), rng.next_bool(0.5)};
    check_wire_size(pr);
    const auto dpr =
        decode_message<storage::TccPrepareResp>(encode_message(pr));
    EXPECT_EQ(dpr.prepare_ts, pr.prepare_ts);
    EXPECT_EQ(dpr.ok, pr.ok);

    storage::TccCommitReq c;
    c.txn = rng.next_u64();
    c.commit_ts = random_ts(rng);
    c.dep_ts = random_ts(rng);
    for (size_t j = 0; j < rng.next_below(4); ++j) {
      c.writes.push_back(storage::KeyValue{rng.next_u64(), random_value(rng)});
    }
    check_wire_size(c);
    const auto dc = decode_message<storage::TccCommitReq>(encode_message(c));
    EXPECT_EQ(dc.txn, c.txn);
    EXPECT_EQ(dc.commit_ts, c.commit_ts);
    ASSERT_EQ(dc.writes.size(), c.writes.size());
    for (size_t j = 0; j < c.writes.size(); ++j) {
      EXPECT_EQ(dc.writes[j].key, c.writes[j].key);
      EXPECT_EQ(dc.writes[j].value, c.writes[j].value);
    }

    storage::TccAbortReq a{rng.next_u64()};
    check_wire_size(a);
    EXPECT_EQ(decode_message<storage::TccAbortReq>(encode_message(a)).txn,
              a.txn);
  }
}

TEST(MessageRoundTrip, GossipAndPush) {
  Rng rng(4);
  storage::GossipMsg g{7, random_ts(rng)};
  check_wire_size(g);
  const auto dg = decode_message<storage::GossipMsg>(encode_message(g));
  EXPECT_EQ(dg.partition, g.partition);
  EXPECT_EQ(dg.safe_time, g.safe_time);

  storage::PushMsg p;
  p.partition = 3;
  p.seq = 41;
  p.stable_time = random_ts(rng);
  storage::VersionedValue v;
  v.key = 9;
  v.value = "abc";
  p.updates.push_back(v);
  check_wire_size(p);
  const auto dp = decode_message<storage::PushMsg>(encode_message(p));
  EXPECT_EQ(dp.partition, 3u);
  EXPECT_EQ(dp.seq, 41u);
  EXPECT_EQ(dp.stable_time, p.stable_time);
  ASSERT_EQ(dp.updates.size(), 1u);
  EXPECT_EQ(dp.updates[0].value, "abc");
}

TEST(MessageRoundTrip, StabilizationTreeMessages) {
  Rng rng(6);
  storage::SafeUpMsg up{5, 12, random_ts(rng)};
  check_wire_size(up);
  const auto du = decode_message<storage::SafeUpMsg>(encode_message(up));
  EXPECT_EQ(du.partition, 5u);
  EXPECT_EQ(du.membership, 12u);
  EXPECT_EQ(du.subtree_min, up.subtree_min);

  storage::StableDownMsg down{12, random_ts(rng)};
  check_wire_size(down);
  const auto dd =
      decode_message<storage::StableDownMsg>(encode_message(down));
  EXPECT_EQ(dd.membership, 12u);
  EXPECT_EQ(dd.stable, down.stable);
}

TEST(MessageRoundTrip, ReplicationFrames) {
  Rng rng(11);
  for (int i = 0; i < 30; ++i) {
    storage::TccReplInstallReq inst;
    inst.txn = rng.next_u64();
    inst.commit_ts = random_ts(rng);
    inst.seq = rng.next_u64();
    for (size_t j = 0; j < rng.next_below(4); ++j) {
      inst.writes.push_back(
          storage::KeyValue{rng.next_u64(), random_value(rng)});
    }
    check_wire_size(inst);
    const auto di =
        decode_message<storage::TccReplInstallReq>(encode_message(inst));
    EXPECT_EQ(di.txn, inst.txn);
    EXPECT_EQ(di.commit_ts, inst.commit_ts);
    EXPECT_EQ(di.seq, inst.seq);
    ASSERT_EQ(di.writes.size(), inst.writes.size());
    for (size_t j = 0; j < inst.writes.size(); ++j) {
      EXPECT_EQ(di.writes[j].key, inst.writes[j].key);
      EXPECT_EQ(di.writes[j].value, inst.writes[j].value);
    }

    storage::TccReplSealReq seal{random_ts(rng), rng.next_u64()};
    check_wire_size(seal);
    const auto ds =
        decode_message<storage::TccReplSealReq>(encode_message(seal));
    EXPECT_EQ(ds.safe, seal.safe);
    EXPECT_EQ(ds.seq_high, seal.seq_high);

    storage::TccReplSealResp sealr{rng.next_bool(0.5), rng.next_u64()};
    check_wire_size(sealr);
    const auto dsr =
        decode_message<storage::TccReplSealResp>(encode_message(sealr));
    EXPECT_EQ(dsr.ok, sealr.ok);
    EXPECT_EQ(dsr.applied_seq, sealr.applied_seq);
  }
  check_wire_size(storage::TccReplInstallResp{false});
  check_wire_size(storage::TccBackfillResp{true});
}

TEST(MessageRoundTrip, BackfillCarriesChainsAndResolvedWindow) {
  Rng rng(12);
  storage::TccBackfillReq q;
  q.safe = random_ts(rng);
  q.seq_high = rng.next_u64();
  for (int i = 0; i < 5; ++i) {
    q.resolved.push_back(storage::ResolvedTxn{rng.next_u64(), random_ts(rng)});
    check_wire_size(q.resolved.back());
  }
  for (int i = 0; i < 3; ++i) {
    storage::MigratedChain c;
    c.key = rng.next_u64();
    for (size_t j = 0; j < rng.next_below(4); ++j) {
      c.versions.push_back(
          storage::MigratedVersion{random_value(rng), random_ts(rng)});
    }
    q.chains.push_back(std::move(c));
  }
  check_wire_size(q);
  const auto d = decode_message<storage::TccBackfillReq>(encode_message(q));
  EXPECT_EQ(d.safe, q.safe);
  EXPECT_EQ(d.seq_high, q.seq_high);
  ASSERT_EQ(d.resolved.size(), q.resolved.size());
  for (size_t i = 0; i < q.resolved.size(); ++i) {
    EXPECT_EQ(d.resolved[i].txn, q.resolved[i].txn);
    EXPECT_EQ(d.resolved[i].ts, q.resolved[i].ts);
  }
  ASSERT_EQ(d.chains.size(), q.chains.size());
  for (size_t i = 0; i < q.chains.size(); ++i) {
    EXPECT_EQ(d.chains[i].key, q.chains[i].key);
    ASSERT_EQ(d.chains[i].versions.size(), q.chains[i].versions.size());
    for (size_t j = 0; j < q.chains[i].versions.size(); ++j) {
      EXPECT_EQ(d.chains[i].versions[j].value, q.chains[i].versions[j].value);
      EXPECT_EQ(d.chains[i].versions[j].ts, q.chains[i].versions[j].ts);
    }
  }
  // The epoch fence defaults to 0 and is NOT encoded then: a pre-elastic
  // parcel's bytes are unchanged and decode back to epoch 0.
  EXPECT_EQ(d.epoch, 0u);

  q.epoch = 7;
  check_wire_size(q);
  const auto de = decode_message<storage::TccBackfillReq>(encode_message(q));
  EXPECT_EQ(de.epoch, 7u);
  EXPECT_EQ(de.safe, q.safe);
  EXPECT_EQ(de.chains.size(), q.chains.size());

  // An empty backfill (fresh follower of an empty slot) still frames.
  check_wire_size(storage::TccBackfillReq{});
}

TEST(MessageRoundTrip, CoalescedPushBatch) {
  Rng rng(7);
  storage::PushBatchMsg b;
  b.partition = 2;
  b.seq = 99;
  b.stable_time = random_ts(rng);
  for (int i = 0; i < 3; ++i) {
    storage::PushUpdate u;
    u.key = rng.next_u64();
    u.value = random_value(rng);
    u.ts = random_ts(rng);
    b.updates.push_back(u);
  }
  check_wire_size(b);
  const auto db = decode_message<storage::PushBatchMsg>(encode_message(b));
  EXPECT_EQ(db.partition, 2u);
  EXPECT_EQ(db.seq, 99u);
  EXPECT_EQ(db.stable_time, b.stable_time);
  ASSERT_EQ(db.updates.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(db.updates[i].key, b.updates[i].key);
    EXPECT_EQ(db.updates[i].value, b.updates[i].value);
    EXPECT_EQ(db.updates[i].ts, b.updates[i].ts);
  }
  // The batched frame drops the 8-byte per-update promise: for the same
  // payload it is strictly smaller than the PushMsg framing.
  storage::PushMsg plain;
  plain.partition = b.partition;
  plain.seq = b.seq;
  plain.stable_time = b.stable_time;
  for (const auto& u : b.updates) {
    storage::VersionedValue v;
    v.key = u.key;
    v.value = u.value;
    v.ts = u.ts;
    v.promise = u.ts;
    plain.updates.push_back(v);
  }
  EXPECT_EQ(b.size_hint() + 8 * b.updates.size(), plain.size_hint());
}

TEST(MessageRoundTrip, EventualStoreMessages) {
  Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    storage::EvItem item;
    item.key = rng.next_u64();
    item.version = storage::EvVersion{rng.next_u64(), rng.next_u64()};
    item.written_at = static_cast<SimTime>(rng.next_below(1u << 30));
    item.payload = random_value(rng);
    check_wire_size(item);
    const auto d = decode_message<storage::EvItem>(encode_message(item));
    EXPECT_EQ(d.key, item.key);
    EXPECT_EQ(d.version, item.version);
    EXPECT_EQ(d.written_at, item.written_at);
    EXPECT_EQ(d.payload, item.payload);
  }

  storage::EvGetReq q;
  q.keys = {1, 2, 3};
  check_wire_size(q);
  EXPECT_EQ(decode_message<storage::EvGetReq>(encode_message(q)).keys, q.keys);

  storage::EvGossipMsg g;
  g.sent_at = 777;
  check_wire_size(g);
  const auto dg = decode_message<storage::EvGossipMsg>(encode_message(g));
  EXPECT_EQ(dg.sent_at, 777);

  storage::EvStableCutMsg cut{4, 999};
  check_wire_size(cut);
  const auto dc = decode_message<storage::EvStableCutMsg>(encode_message(cut));
  EXPECT_EQ(dc.replica, 4u);
  EXPECT_EQ(dc.cut, 999);
}

// ---------------------------------------------------------------------------
// Cache messages.
// ---------------------------------------------------------------------------

TEST(MessageRoundTrip, CacheReadReqResp) {
  Rng rng(6);
  cache::CacheReadReq q;
  q.interval = client::SnapshotInterval{random_ts(rng), random_ts(rng)};
  q.use_promises = false;
  q.keys = {5, 6};
  check_wire_size(q);
  const auto dq = decode_message<cache::CacheReadReq>(encode_message(q));
  EXPECT_EQ(dq.interval, q.interval);
  EXPECT_FALSE(dq.use_promises);
  EXPECT_EQ(dq.keys, q.keys);

  cache::CacheReadResp resp;
  resp.abort = true;
  resp.interval = q.interval;
  resp.from_cache = {true, false};
  storage::VersionedValue v;
  v.key = 5;
  resp.entries.push_back(v);
  resp.entries.push_back(v);
  check_wire_size(resp);
  const auto dr = decode_message<cache::CacheReadResp>(encode_message(resp));
  EXPECT_TRUE(dr.abort);
  EXPECT_EQ(dr.from_cache, resp.from_cache);
  EXPECT_EQ(dr.entries.size(), 2u);
}

TEST(MessageRoundTrip, HydroReadReqResp) {
  Rng rng(7);
  cache::HydroReadReq q;
  q.keys = {1};
  q.context.mark_read(2, 9, 100);
  check_wire_size(q);
  const auto dq = decode_message<cache::HydroReadReq>(encode_message(q));
  EXPECT_EQ(dq.keys, q.keys);
  EXPECT_NE(dq.context.find(2), nullptr);

  cache::HydroReadResp resp;
  resp.global_cut = 55;
  cache::HydroReadEntry e;
  e.key = 1;
  e.value = "v";
  e.counter = 3;
  e.written_at = 44;
  e.deps = cache::DepList({cache::StoredDep{9, 2, 10, 1}});
  resp.entries.push_back(std::move(e));
  resp.from_cache.push_back(true);
  check_wire_size(resp);
  const auto dr = decode_message<cache::HydroReadResp>(encode_message(resp));
  EXPECT_EQ(dr.global_cut, 55);
  ASSERT_EQ(dr.entries.size(), 1u);
  EXPECT_EQ(dr.entries[0].counter, 3u);
  ASSERT_EQ(dr.entries[0].deps.size(), 1u);
  EXPECT_EQ(dr.entries[0].deps[0].level, 1);
}

// ---------------------------------------------------------------------------
// FaaS messages.
// ---------------------------------------------------------------------------

TEST(MessageRoundTrip, TriggerMsg) {
  faas::TriggerMsg t;
  t.txn_id = 77;
  t.fn_index = 2;
  t.client = 900;
  faas::FunctionSpec f;
  f.name = "fn";
  f.args = {1, 2};
  f.children = {1};
  t.spec.functions.push_back(f);
  t.spec.functions.push_back(faas::FunctionSpec{"sink", {}, {}});
  t.placement = {10, 11};
  t.session = Buffer{9};
  t.context = Buffer{8, 8};
  t.parent_result = {7};
  check_wire_size(t);
  const auto d = decode_message<faas::TriggerMsg>(encode_message(t));
  EXPECT_EQ(d.txn_id, 77u);
  EXPECT_EQ(d.fn_index, 2u);
  EXPECT_EQ(d.client, 900u);
  EXPECT_EQ(d.spec.functions.size(), 2u);
  EXPECT_EQ(d.placement, t.placement);
  EXPECT_EQ(d.session.bytes(), Buffer({9}));
  EXPECT_EQ(d.context.bytes(), Buffer({8, 8}));
  EXPECT_EQ(d.parent_result, t.parent_result);
}

// Decoding a trigger from a shared message buffer must not copy the
// session/context blobs: the payloads alias the wire bytes in place and
// keep the buffer alive through the shared count.
TEST(MessageRoundTrip, TriggerMsgSharedDecodeAliasesPayloads) {
  faas::TriggerMsg t;
  t.txn_id = 1;
  t.spec.functions.push_back(faas::FunctionSpec{"f", {}, {}});
  t.session = Buffer{1, 2, 3};
  t.context = Buffer{4, 5, 6, 7};
  auto wire = std::make_shared<const Buffer>(encode_message(t));
  const uint8_t* lo = wire->data();
  const uint8_t* hi = lo + wire->size();
  auto d = decode_message<faas::TriggerMsg>(wire);
  ASSERT_EQ(d.session.size(), 3u);
  ASSERT_EQ(d.context.size(), 4u);
  EXPECT_TRUE(d.session.data() >= lo && d.session.data() < hi);
  EXPECT_TRUE(d.context.data() >= lo && d.context.data() < hi);
  EXPECT_EQ(d.session.owner().get(), wire.get());
  EXPECT_EQ(d.context.owner().get(), wire.get());
  // The views stay valid after the last outside reference drops.
  const Buffer ctx_bytes = d.context.bytes();
  wire.reset();
  EXPECT_EQ(d.context.bytes(), ctx_bytes);
  EXPECT_EQ(d.session.bytes(), Buffer({1, 2, 3}));
}

// The same for the session a client hands the scheduler and the one the
// sink hands back: shared-ownership decode aliases the wire bytes.
TEST(MessageRoundTrip, StartAndDoneSharedDecodeAliasSessions) {
  faas::StartDagMsg s;
  s.txn_id = 1;
  s.session = Buffer{1, 2, 3};
  s.spec.functions.push_back(faas::FunctionSpec{"f", {}, {}});
  auto start_wire = std::make_shared<const Buffer>(encode_message(s));
  const auto ds = decode_message<faas::StartDagMsg>(start_wire);
  ASSERT_EQ(ds.session.size(), 3u);
  EXPECT_TRUE(ds.session.data() >= start_wire->data() &&
              ds.session.data() < start_wire->data() + start_wire->size());
  EXPECT_EQ(ds.session.owner().get(), start_wire.get());

  faas::DagDoneMsg done;
  done.txn_id = 1;
  done.committed = true;
  done.session = Buffer{4, 5};
  done.result = {6};
  auto done_wire = std::make_shared<const Buffer>(encode_message(done));
  const uint8_t* lo = done_wire->data();
  const uint8_t* hi = lo + done_wire->size();
  const auto dd = decode_message<faas::DagDoneMsg>(done_wire);
  ASSERT_EQ(dd.session.size(), 2u);
  EXPECT_TRUE(dd.session.data() >= lo && dd.session.data() < hi);
  EXPECT_EQ(dd.session.owner().get(), done_wire.get());
  EXPECT_EQ(dd.result, Buffer({6}));
  // The views outlive the caller's reference to the wire buffers.
  start_wire.reset();
  done_wire.reset();
  EXPECT_EQ(ds.session.bytes(), Buffer({1, 2, 3}));
  EXPECT_EQ(dd.session.bytes(), Buffer({4, 5}));
}

TEST(MessageRoundTrip, StartAndDone) {
  faas::StartDagMsg s;
  s.txn_id = 5;
  s.client = 6;
  s.session = Buffer{1, 2, 3};
  s.spec.functions.push_back(faas::FunctionSpec{"f", {}, {}});
  check_wire_size(s);
  const auto ds = decode_message<faas::StartDagMsg>(encode_message(s));
  EXPECT_EQ(ds.txn_id, 5u);
  EXPECT_EQ(ds.session.bytes(), s.session.bytes());

  faas::DagDoneMsg done;
  done.txn_id = 5;
  done.committed = true;
  done.session = Buffer{4};
  done.result = {5, 5};
  check_wire_size(done);
  const auto dd = decode_message<faas::DagDoneMsg>(encode_message(done));
  EXPECT_TRUE(dd.committed);
  EXPECT_EQ(dd.session.bytes(), done.session.bytes());
  EXPECT_EQ(dd.result, done.result);
}

// Counted-size checks for the message types the round-trip tests above do
// not construct, so every wire type in the codebase is covered.
TEST(CountedSize, RemainingMessageTypes) {
  Rng rng(8);

  check_wire_size(storage::TccCommitResp{true});
  check_wire_size(storage::EvVersion{3, 4});

  storage::SubscribeReq sub;
  sub.keys = {1, 2, 3, 4};
  sub.seq = 17;
  check_wire_size(sub);
  EXPECT_EQ(decode_message<storage::SubscribeReq>(encode_message(sub)).seq,
            17u);

  storage::EvItem item;
  item.key = 5;
  item.version = storage::EvVersion{6, 7};
  item.written_at = 99;
  item.payload = random_value(rng);

  storage::EvGetResp get_resp;
  get_resp.global_cut = 12;
  get_resp.found = {item, item};
  check_wire_size(get_resp);

  storage::EvPutReq put_req;
  put_req.items = {item};
  check_wire_size(put_req);

  storage::EvPutResp put_resp;
  put_resp.global_cut = 13;
  put_resp.versions = {storage::EvVersion{1, 2}, storage::EvVersion{3, 4}};
  check_wire_size(put_resp);

  cache::PlainReadReq plain_req;
  plain_req.keys = {10, 11};
  check_wire_size(plain_req);

  cache::PlainReadResp plain_resp;
  plain_resp.entries.push_back(storage::KeyValue{10, random_value(rng)});
  check_wire_size(plain_resp);
  check_wire_size(plain_resp.entries[0]);

  cache::StoredDep dep{21, 9, 100, 1};
  check_wire_size(dep);

  cache::HydroStored stored;
  stored.value = random_value(rng);
  stored.deps = cache::DepList({dep, dep});
  check_wire_size(stored);
  // Duplicate keys are already in key order: the round trip is
  // byte-identical.
  EXPECT_EQ(encode_message(
                decode_message<cache::HydroStored>(encode_message(stored))),
            encode_message(stored));

  cache::HydroReadEntry entry;
  entry.key = 21;
  entry.value = random_value(rng);
  entry.counter = 3;
  entry.deps = cache::DepList({dep});
  check_wire_size(entry);

  cache::DepMap deps;
  deps.mark_read(1, 5, 50);
  deps.require(2, 6, 60, 1);
  check_wire_size(deps);

  check_wire_size(client::SnapshotInterval{Timestamp(3), Timestamp(9)});

  client::FaasTccContext tcc_ctx;
  tcc_ctx.interval = client::SnapshotInterval{Timestamp(1), Timestamp(2)};
  tcc_ctx.dep_ts = Timestamp(7);
  tcc_ctx.write_set[4] = random_value(rng);
  check_wire_size(tcc_ctx);

  client::HydroContext hydro_ctx;
  hydro_ctx.deps = deps;
  hydro_ctx.lamport = 8;
  hydro_ctx.global_cut = 70;
  hydro_ctx.write_set[5] = random_value(rng);
  check_wire_size(hydro_ctx);

  client::HydroSession session;
  session.lamport = 9;
  session.global_cut = 80;
  session.deps = deps;
  check_wire_size(session);

  client::EventualContext ev_ctx;
  ev_ctx.write_set[6] = random_value(rng);
  check_wire_size(ev_ctx);

  check_wire_size(faas::AbortNoticeMsg{77});

  faas::FunctionSpec fn;
  fn.name = "step";
  fn.args = {1, 2, 3};
  fn.children = {1};
  check_wire_size(fn);

  faas::DagSpec dag;
  dag.functions = {fn, faas::FunctionSpec{"sink", {}, {}}};
  dag.is_static = true;
  dag.declared_read_set = {1, 2};
  dag.declared_write_set = {3};
  check_wire_size(dag);

  workload::StepArgs step;
  step.keys = {4, 5, 6};
  check_wire_size(step);

  workload::SinkArgs sink;
  sink.keys = {7, 8};
  sink.write_key = 9;
  sink.value = random_value(rng);
  check_wire_size(sink);
}

// ---------------------------------------------------------------------------
// Wire sizes that feed the paper's byte metrics.
// ---------------------------------------------------------------------------

TEST(WireSize, SnapshotIntervalIs16Bytes) {
  EXPECT_EQ(encoded_size(client::SnapshotInterval{}), 16u);
}

TEST(WireSize, DepEntryIs26Bytes) {
  cache::DepMap m;
  m.require(1, 1, 1, 1);
  EXPECT_EQ(m.wire_bytes(), 4u + cache::kDepWireBytes);
  EXPECT_EQ(cache::kDepWireBytes, 26u);
}

TEST(WireSize, UnchangedReadEntrySmallerThanValueEntry) {
  storage::TccReadResp with_value;
  storage::TccReadResp::Entry e;
  e.key = 1;
  e.status = storage::TccReadResp::Status::kValue;
  e.value = Value(8, 'x');
  with_value.entries.push_back(e);

  storage::TccReadResp unchanged;
  e.status = storage::TccReadResp::Status::kUnchanged;
  e.value = Value();
  unchanged.entries.push_back(e);

  EXPECT_LT(encoded_size(unchanged), encoded_size(with_value));
}

}  // namespace
}  // namespace faastcc
