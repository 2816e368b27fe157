// Round-trip property tests for every wire message: decode(encode(x)) == x
// under randomized contents, plus exact wire-size checks for the messages
// whose sizes feed the paper's byte metrics.
#include <gtest/gtest.h>

#include <cstring>
#include <typeinfo>

#include "cache/cache_messages.h"
#include "client/eventual_client.h"
#include "client/faastcc_client.h"
#include "client/hydro_client.h"
#include "common/rng.h"
#include "faas/messages.h"
#include "routing/topology_service.h"
#include "storage/messages.h"
#include "workload/workload.h"

namespace faastcc {
namespace {

// The allocation-free CountingWriter pass (encoded_size) must agree
// byte-for-byte with a real encode: pooled buffers are reserved from it,
// so a short count would mean a mid-encode reallocation on the hot path.
template <typename M>
void check_wire_size(const M& m) {
  const size_t counted = encoded_size(m);
  EXPECT_EQ(counted, encode_message(m).size());
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

    // The commit ack carries the commit timestamp: the ok byte, then the
    // raw timestamp.
    storage::TccCommitResp cr{rng.next_bool(0.5), random_ts(rng)};
    check_wire_size(cr);
    const auto dcr = decode_message<storage::TccCommitResp>(encode_message(cr));
    EXPECT_EQ(dcr.ok, cr.ok);
    EXPECT_EQ(dcr.commit_ts, cr.commit_ts);
    BufWriter cw;
    cw.put_bool(cr.ok);
    cw.put_u64(cr.commit_ts.raw());
    EXPECT_EQ(encode_message(cr), cw.take());

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

  // An empty push is the promise-extension heartbeat; it still frames.
  storage::PushBatchMsg p;
  p.partition = 3;
  p.seq = 41;
  p.stable_time = random_ts(rng);
  check_wire_size(p);
  const auto dp = decode_message<storage::PushBatchMsg>(encode_message(p));
  EXPECT_EQ(dp.partition, 3u);
  EXPECT_EQ(dp.seq, 41u);
  EXPECT_EQ(dp.stable_time, p.stable_time);
  EXPECT_TRUE(dp.updates.empty());
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
  cache::Dep d;
  EXPECT_TRUE(dq.context.lookup(2, d));

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
  faas::DagSpec spec;
  spec.functions.push_back(f);
  spec.functions.push_back(faas::FunctionSpec{"sink", {}, {}});
  t.spec = spec;
  t.placement = {10, 11};
  t.session = Buffer{9};
  t.context = Buffer{8, 8};
  t.parent_result = {7};
  check_wire_size(t);
  const auto d = decode_message<faas::TriggerMsg>(encode_message(t));
  EXPECT_EQ(d.txn_id, 77u);
  EXPECT_EQ(d.fn_index, 2u);
  EXPECT_EQ(d.client, 900u);
  EXPECT_EQ(d.spec.num_functions(), 2u);
  EXPECT_EQ(d.placement, t.placement);
  EXPECT_EQ(d.session.bytes(), Buffer({9}));
  EXPECT_EQ(d.context.bytes(), Buffer({8, 8}));
  EXPECT_EQ(d.parent_result, t.parent_result);
}

// Decoding a trigger from a shared message buffer must not copy the
// session/context blobs or the spec: they alias the wire bytes in place
// and keep the buffer alive through the shared count.
TEST(MessageRoundTrip, TriggerMsgSharedDecodeAliasesPayloads) {
  faas::TriggerMsg t;
  t.txn_id = 1;
  t.spec = faas::DagSpec::chain({faas::FunctionSpec{"f", {5, 6}, {}}});
  t.session = Buffer{1, 2, 3};
  t.context = Buffer{4, 5, 6, 7};
  auto wire = std::make_shared<const Buffer>(encode_message(t));
  const Buffer wire_bytes = *wire;
  const uint8_t* lo = wire->data();
  const uint8_t* hi = lo + wire->size();
  auto d = decode_message<faas::TriggerMsg>(wire);
  ASSERT_EQ(d.session.size(), 3u);
  ASSERT_EQ(d.context.size(), 4u);
  EXPECT_TRUE(d.session.data() >= lo && d.session.data() < hi);
  EXPECT_TRUE(d.context.data() >= lo && d.context.data() < hi);
  EXPECT_EQ(d.session.owner().get(), wire.get());
  EXPECT_EQ(d.context.owner().get(), wire.get());
  const Payload& spec = d.spec.bytes();
  EXPECT_TRUE(spec.data() >= lo && spec.data() + spec.size() <= hi);
  EXPECT_EQ(spec.owner().get(), wire.get());
  const auto fn = d.spec.function(0);
  EXPECT_EQ(fn.name, "f");
  EXPECT_TRUE(fn.args.data() >= lo && fn.args.data() < hi);
  EXPECT_EQ(fn.args.owner().get(), wire.get());
  // The views stay valid after the last outside reference drops.
  const Buffer ctx_bytes = d.context.bytes();
  wire.reset();
  EXPECT_EQ(d.context.bytes(), ctx_bytes);
  EXPECT_EQ(d.session.bytes(), Buffer({1, 2, 3}));
  EXPECT_EQ(fn.args.bytes(), Buffer({5, 6}));
  // Forwarding re-encodes the spec it was handed byte for byte.
  EXPECT_EQ(encode_message(d), wire_bytes);
  faas::TriggerMsg next;
  next.txn_id = d.txn_id;
  next.spec = d.spec;
  next.session = d.session;
  next.context = d.context;
  EXPECT_EQ(encode_message(next), wire_bytes);
}

// The same for the session a client hands the scheduler and the one the
// sink hands back: shared-ownership decode aliases the wire bytes.
TEST(MessageRoundTrip, StartAndDoneSharedDecodeAliasSessions) {
  faas::StartDagMsg s;
  s.txn_id = 1;
  s.session = Buffer{1, 2, 3};
  s.spec = faas::DagSpec::chain({faas::FunctionSpec{"f", {}, {}}});
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
  s.spec = faas::DagSpec::chain({faas::FunctionSpec{"f", {}, {}}});
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

  check_wire_size(storage::TccCommitResp{true, Timestamp(5)});
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

// ---------------------------------------------------------------------------
// Golden wire bytes.  One populated instance of every wire type, encoded
// and compared against hex pinned when the codec was written by hand: the
// codec decides every simulated byte and every schedule checksum, so a
// codec change must leave these strings untouched.  Trailing or optional
// layouts are pinned in both states.
// ---------------------------------------------------------------------------

std::string hex(const Buffer& b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  for (uint8_t c : b) {
    s.push_back(kDigits[c >> 4]);
    s.push_back(kDigits[c & 15]);
  }
  return s;
}

template <typename M>
std::string wire_hex(const M& m) {
  return hex(encode_message(m));
}

storage::MigratedChain golden_chain() {
  storage::MigratedChain c;
  c.key = 0x31;
  c.versions.push_back(storage::MigratedVersion{"ab", Timestamp(0x32)});
  c.versions.push_back(storage::MigratedVersion{"", Timestamp(0x33)});
  return c;
}

storage::EvItem golden_item() {
  storage::EvItem it;
  it.key = 0x41;
  it.version = storage::EvVersion{0x42, 0x43};
  it.written_at = -2;
  it.payload = "pq";
  return it;
}

TEST(WireGolden, TccStorageMessages) {
  storage::VersionedValue vv;
  vv.key = 0x0102030405060708;
  vv.value = "xyz";
  vv.ts = Timestamp(0x11);
  vv.promise = Timestamp(0x12);
  EXPECT_EQ(wire_hex(vv),
            "08070605040302010300000078797a11000000000000001200000000000000");

  storage::TccReadReq rq;
  rq.snapshot = Timestamp::max();
  rq.keys = {5, 6};
  rq.cached_ts = {Timestamp::min(), Timestamp(0x21)};
  EXPECT_EQ(wire_hex(rq),
            "ffffffffffffffff020000000500000000000000000000000000000006000000"
            "000000002100000000000000");

  storage::TccReadResp rr;
  rr.stable_time = Timestamp(0x22);
  using Status = storage::TccReadResp::Status;
  rr.entries.push_back({1, Status::kValue, "v", Timestamp(3), Timestamp(4),
                        true});
  rr.entries.push_back({2, Status::kUnchanged, {}, Timestamp(5),
                        Timestamp(6), false});
  rr.entries.push_back({3, Status::kMiss, {}, {}, {}, false});
  rr.entries.push_back({4, Status::kWrongOwner, {}, {}, {}, false});
  EXPECT_EQ(wire_hex(rr),
            "2200000000000000040000000100000000000000000300000000000000040000"
            "0000000000010100000076020000000000000001050000000000000006000000"
            "0000000000030000000000000002040000000000000003");

  EXPECT_EQ(wire_hex(storage::KeyValue{7, "kv"}),
            "0700000000000000020000006b76");

  storage::TccPrepareReq prep;
  prep.txn = 0x51;
  prep.dep_ts = Timestamp(0x52);
  prep.si_mode = true;
  prep.snapshot_ts = Timestamp(0x53);
  prep.write_keys = {8, 9};
  EXPECT_EQ(wire_hex(prep),
            "5100000000000000520000000000000001530000000000000002000000080000"
            "00000000000900000000000000");
  EXPECT_EQ(wire_hex(storage::TccPrepareResp{Timestamp(0x54), false}),
            "540000000000000000");
  EXPECT_EQ(wire_hex(storage::TccAbortReq{0x55}), "5500000000000000");

  storage::TccCommitReq commit;
  commit.txn = 0x56;
  commit.commit_ts = Timestamp(0x57);
  commit.dep_ts = Timestamp(0x58);
  commit.writes = {storage::KeyValue{10, "w"}, storage::KeyValue{11, ""}};
  EXPECT_EQ(wire_hex(commit),
            "560000000000000057000000000000005800000000000000020000000a000000"
            "0000000001000000770b0000000000000000000000");

  storage::SubscribeReq sub;
  sub.keys = {12, 13};
  sub.seq = 0x59;
  EXPECT_EQ(wire_hex(sub),
            "020000000c000000000000000d000000000000005900000000000000");

  EXPECT_EQ(wire_hex(storage::GossipMsg{3, Timestamp(0x5a)}),
            "030000005a00000000000000");

  storage::PushUpdate pu{14, "u", Timestamp(0x5d)};
  EXPECT_EQ(wire_hex(pu), "0e0000000000000001000000755d00000000000000");
  storage::PushBatchMsg batch;
  batch.partition = 5;
  batch.seq = 0x5e;
  batch.stable_time = Timestamp(0x5f);
  batch.updates = {pu, storage::PushUpdate{15, "", Timestamp(0x60)}};
  EXPECT_EQ(wire_hex(batch),
            "050000005e000000000000005f00000000000000020000000e00000000000000"
            "01000000755d000000000000000f000000000000000000000060000000000000"
            "00");

  EXPECT_EQ(wire_hex(storage::SafeUpMsg{6, 7, Timestamp(0x61)}),
            "06000000070000006100000000000000");
  EXPECT_EQ(wire_hex(storage::StableDownMsg{8, Timestamp(0x62)}),
            "080000006200000000000000");
}

TEST(WireGolden, HandoffAndReplicationMessages) {
  EXPECT_EQ(wire_hex(storage::MigratedVersion{"mv", Timestamp(0x30)}),
            "020000006d763000000000000000");
  EXPECT_EQ(wire_hex(golden_chain()),
            "3100000000000000020000000200000061623200000000000000000000003300"
            "000000000000");

  storage::TccMigrateOutReq out;
  out.target = 9;
  out.table.epoch = 2;
  out.table.partitions = {100, 101};
  out.table.slot_owner = {0, 1, 1, 0};
  EXPECT_EQ(wire_hex(out),
            "0900000002000000020000006400000065000000040000000000000001000000"
            "0100000000000000");

  storage::TccMigrateOutResp out_resp;
  out_resp.ok = false;
  out_resp.safe_time = Timestamp(0x34);
  out_resp.last_heard = {Timestamp(0x35), Timestamp(0x36)};
  out_resp.chains = {golden_chain()};
  EXPECT_EQ(wire_hex(out_resp),
            "0034000000000000000200000035000000000000003600000000000000010000"
            "0031000000000000000200000002000000616232000000000000000000000033"
            "00000000000000");

  storage::TccMigrateInReq in;
  in.epoch = 3;
  in.source = 1;
  in.expected_sources = 2;
  in.source_safe = Timestamp(0x37);
  in.last_heard = {Timestamp(0x38)};
  in.chains = {golden_chain(), storage::MigratedChain{0x39, {}}};
  EXPECT_EQ(wire_hex(in),
            "0300000001000000020000003700000000000000010000003800000000000000"
            "0200000031000000000000000200000002000000616232000000000000000000"
            "00003300000000000000390000000000000000000000");
  EXPECT_EQ(wire_hex(storage::TccMigrateInResp{false}), "00");

  storage::TccReplInstallReq inst;
  inst.txn = 0x3a;
  inst.commit_ts = Timestamp(0x3b);
  inst.seq = 0x3c;
  inst.writes = {storage::KeyValue{16, "r"}};
  EXPECT_EQ(wire_hex(inst),
            "3a000000000000003b000000000000003c000000000000000100000010000000"
            "000000000100000072");
  EXPECT_EQ(wire_hex(storage::TccReplInstallResp{false}), "00");
  EXPECT_EQ(wire_hex(storage::TccReplSealReq{Timestamp(0x3d), 0x3e}),
            "3d000000000000003e00000000000000");
  EXPECT_EQ(wire_hex(storage::TccReplSealResp{false, 0x3f}),
            "003f00000000000000");
  EXPECT_EQ(wire_hex(storage::ResolvedTxn{0x40, Timestamp(0x41)}),
            "40000000000000004100000000000000");

  storage::TccBackfillReq fill;
  fill.safe = Timestamp(0x42);
  fill.seq_high = 0x43;
  fill.resolved = {storage::ResolvedTxn{0x44, Timestamp(0x45)}};
  fill.chains = {golden_chain()};
  EXPECT_EQ(wire_hex(fill),
            "4200000000000000430000000000000001"
            "0000004400000000000000450000000000"
            "0000010000003100000000000000020000"
            "0002000000616232000000000000000000"
            "00003300000000000000");  // epoch 0: not on the wire
  fill.epoch = 0x46;
  EXPECT_EQ(wire_hex(fill),
            "4200000000000000430000000000000001000000440000000000000045000000"
            "0000000001000000310000000000000002000000020000006162320000000000"
            "000000000000330000000000000046000000");
  EXPECT_EQ(wire_hex(storage::TccBackfillResp{false}), "00");
}

TEST(WireGolden, EventualStoreMessages) {
  EXPECT_EQ(wire_hex(storage::EvVersion{0x42, 0x43}),
            "42000000000000004300000000000000");
  EXPECT_EQ(wire_hex(golden_item()),
            "410000000000000042000000000000004300000000000000feffffffffffffff"
            "020000007071");

  storage::EvGetReq get;
  get.keys = {17, 18};
  EXPECT_EQ(wire_hex(get), "0200000011000000000000001200000000000000");
  storage::EvGetResp get_resp;
  get_resp.global_cut = 0x44;
  get_resp.found = {golden_item()};
  EXPECT_EQ(wire_hex(get_resp),
            "4400000000000000010000004100000000000000420000000000000043000000"
            "00000000feffffffffffffff020000007071");

  storage::EvPutReq put;
  put.items = {golden_item(), golden_item()};
  EXPECT_EQ(wire_hex(put),
            "02000000410000000000000042000000000000004300000000000000feffffff"
            "ffffffff02000000707141000000000000004200000000000000430000000000"
            "0000feffffffffffffff020000007071");
  storage::EvPutResp put_resp;
  put_resp.global_cut = 0x45;
  put_resp.versions = {storage::EvVersion{1, 2}};
  EXPECT_EQ(wire_hex(put_resp),
            "45000000000000000100000001000000000000000200000000000000");

  storage::EvGossipMsg gossip;
  gossip.sent_at = 0x46;
  gossip.items = {golden_item()};
  EXPECT_EQ(wire_hex(gossip),
            "4600000000000000010000004100000000000000420000000000000043000000"
            "00000000feffffffffffffff020000007071");
  EXPECT_EQ(wire_hex(storage::EvStableCutMsg{0x47, 0x48}),
            "47000000000000004800000000000000");
}

TEST(WireGolden, CacheMessages) {
  cache::CacheReadReq q;
  q.interval = client::SnapshotInterval{Timestamp(0x70), Timestamp(0x71)};
  q.use_promises = false;
  q.keys = {19, 20};
  EXPECT_EQ(wire_hex(q),
            "7000000000000000710000000000000000020000001300000000000000140000"
            "0000000000");

  cache::CacheReadResp resp;
  resp.abort = true;
  resp.interval = q.interval;
  resp.entries.push_back({21, "c", Timestamp(0x72), Timestamp(0x73)});
  resp.from_cache = {true, false};
  EXPECT_EQ(wire_hex(resp),
            "0170000000000000007100000000000000010000001500000000000000010000"
            "006372000000000000007300000000000000020000000100");

  const cache::StoredDep dep{22, 0x74, 0x75, 1};
  EXPECT_EQ(wire_hex(dep),
            "16000000000000007400000000000000750000000000000001");
  cache::HydroStored stored;
  stored.value = "hs";
  stored.deps = cache::DepList({dep, cache::StoredDep{23, 0x76, 0x77, 0}});
  EXPECT_EQ(wire_hex(stored),
            "0200000068730200000016000000000000007400000000000000750000000000"
            "00000117000000000000007600000000000000770000000000000000");

  cache::HydroReadReq hq;
  hq.keys = {24};
  hq.context.mark_read(25, 0x78, 0x79);
  hq.context.require(26, 0x7a, 0x7b, 1);
  EXPECT_EQ(wire_hex(hq),
            "0100000018000000000000000200000019000000000000007800000000000000"
            "790000000000000001001a000000000000007a000000000000007b0000000000"
            "00000001");

  cache::HydroReadEntry he{27, "he", 0x7c, 0x7d, cache::DepList({dep})};
  EXPECT_EQ(wire_hex(he),
            "1b000000000000000200000068657c000000000000007d000000000000000100"
            "000016000000000000007400000000000000750000000000000001");
  cache::HydroReadResp hr;
  hr.abort = false;
  hr.entries = {he};
  hr.from_cache = {true};
  hr.global_cut = 0x7e;
  EXPECT_EQ(wire_hex(hr),
            "00010000001b000000000000000200000068657c000000000000007d00000000"
            "0000000100000016000000000000007400000000000000750000000000000001"
            "01000000017e00000000000000");

  cache::PlainReadReq pq;
  pq.keys = {28};
  EXPECT_EQ(wire_hex(pq), "010000001c00000000000000");
  cache::PlainReadResp pr;
  pr.abort = true;
  pr.entries = {storage::KeyValue{29, "pl"}};
  EXPECT_EQ(wire_hex(pr), "01010000001d0000000000000002000000706c");
}

faas::DagSpec golden_spec() {
  faas::DagSpec spec;
  spec.functions.push_back(faas::FunctionSpec{"f", {1, 2}, {1}});
  spec.functions.push_back(faas::FunctionSpec{"s", {}, {}});
  spec.is_static = true;
  spec.declared_read_set = {30};
  spec.declared_write_set = {31, 32};
  return spec;
}

faas::StartDagMsg golden_start() {
  faas::StartDagMsg start;
  start.txn_id = 0x80;
  start.client = 0x81;
  start.session = Buffer{0xaa, 0xbb};
  start.spec = golden_spec();
  return start;
}

faas::TriggerMsg golden_trigger() {
  faas::TriggerMsg trig;
  trig.txn_id = 0x82;
  trig.fn_index = 1;
  trig.from_fn = 0;
  trig.client = 0x83;
  trig.spec = golden_spec();
  trig.placement = {0x84, 0x85};
  trig.session = Buffer{0xcc};
  trig.context = Buffer{0xdd, 0xee};
  trig.parent_result = {0xff};
  return trig;
}

TEST(WireGolden, FaasMessagesAndArgs) {
  EXPECT_EQ(wire_hex(faas::FunctionSpec{"fn", {9}, {2, 3}}),
            "02000000666e0100000009020000000200000003000000");
  EXPECT_EQ(wire_hex(golden_spec()),
            "0200000001000000660200000001020100000001000000010000007300000000"
            "0000000001010000001e00000000000000020000001f00000000000000200000"
            "0000000000");

  EXPECT_EQ(wire_hex(golden_start()),
            "80000000000000008100000002000000aabb0200000001000000660200000001"
            "0201000000010000000100000073000000000000000001010000001e00000000"
            "000000020000001f000000000000002000000000000000");

  EXPECT_EQ(wire_hex(golden_trigger()),
            "8200000000000000010000000000000083000000020000000100000066020000"
            "00010201000000010000000100000073000000000000000001010000001e0000"
            "0000000000020000001f00000000000000200000000000000002000000840000"
            "008500000001000000cc02000000ddee01000000ff");

  faas::DagDoneMsg done;
  done.txn_id = 0x86;
  done.committed = true;
  done.session = Buffer{0x11};
  done.result = {0x22, 0x33};
  EXPECT_EQ(wire_hex(done), "8600000000000000010100000011020000002233");
  EXPECT_EQ(wire_hex(faas::AbortNoticeMsg{0x87}), "8700000000000000");

  workload::StepArgs step;
  step.keys = {33, 34};
  EXPECT_EQ(wire_hex(step), "0200000021000000000000002200000000000000");
  workload::SinkArgs sink;
  sink.keys = {35};
  sink.write_key = 36;
  sink.value = "sk";
  EXPECT_EQ(wire_hex(sink),
            "010000002300000000000000240000000000000002000000736b");
}

// Every proper prefix of a FaaS message's encoding is rejected as a
// CodecError, by the copying and the shared-ownership decode alike: a
// truncated spec, placement or blob is never read past its end nor
// accepted short.
template <typename M>
void expect_prefixes_rejected(const M& m) {
  const Buffer good = encode_message(m);
  for (size_t n = 0; n < good.size(); ++n) {
    const Buffer prefix(good.begin(), good.begin() + static_cast<long>(n));
    EXPECT_THROW(decode_message<M>(prefix), CodecError)
        << typeid(M).name() << ", prefix of " << n << " bytes";
    EXPECT_THROW(decode_message<M>(std::make_shared<const Buffer>(prefix)),
                 CodecError)
        << typeid(M).name() << ", shared prefix of " << n << " bytes";
  }
}

TEST(WireGolden, FaasMessagePrefixesRejected) {
  expect_prefixes_rejected(golden_start());
  expect_prefixes_rejected(golden_trigger());
}

TEST(WireGolden, ClientContexts) {
  EXPECT_EQ(wire_hex(client::SnapshotInterval{Timestamp(0x90),
                                              Timestamp(0x91)}),
            "90000000000000009100000000000000");

  client::FaasTccContext tcc;
  tcc.interval = client::SnapshotInterval{Timestamp(0x92), Timestamp(0x93)};
  tcc.dep_ts = Timestamp(0x94);
  tcc.snapshot_fixed = true;
  tcc.write_set[37] = "t1";
  tcc.write_set[38] = "";
  tcc.routing_epoch = 1;  // <= 1: version-1 layout, no epoch
  EXPECT_EQ(wire_hex(tcc),
            "0192000000000000009300000000000000940000000000000001020000002500"
            "000000000000020000007431260000000000000000000000");
  tcc.routing_epoch = 5;  // > 1: version-2 layout carries the epoch
  EXPECT_EQ(wire_hex(tcc),
            "0205000000920000000000000093000000000000009400000000000000010200"
            "00002500000000000000020000007431260000000000000000000000");

  client::HydroContext hctx;
  hctx.deps.mark_read(39, 0x95, 0x96);
  hctx.deps.require(40, 0x97, 0x98, 2);
  hctx.lamport = 0x99;
  hctx.global_cut = 0x9a;
  hctx.write_set[41] = "h";
  EXPECT_EQ(wire_hex(hctx),
            "0102000000270000000000000095000000000000009600000000000000010028"
            "0000000000000097000000000000009800000000000000000299000000000000"
            "009a000000000000000100000029000000000000000100000068");

  client::HydroSession session;
  session.lamport = 0x9b;
  session.global_cut = 0x9c;
  session.deps.require(42, 0x9d, 0x9e, 1);
  EXPECT_EQ(wire_hex(session),
            "9b000000000000009c00000000000000010000002a000000000000009d000000"
            "000000009e000000000000000001");

  client::EventualContext ev;
  ev.write_set[43] = "e";
  ev.write_set[44] = "ee";
  EXPECT_EQ(wire_hex(ev),
            "020000002b0000000000000001000000652c00000000000000020000006565");
}

TEST(WireGolden, RoutingMessages) {
  routing::RoutingTable t;
  t.epoch = 4;
  t.partitions = {100, 101};
  t.slot_owner = {1, 0, 0, 1};
  EXPECT_EQ(wire_hex(t),
            "0400000002000000640000006500"
            "0000040000000100000000000000"
            "0000000001000000");  // no replicas: no trailing block
  t.replicas = {{200, 201}, {}};
  EXPECT_EQ(wire_hex(t),
            "0400000002000000640000006500000004000000010000000000000000000000"
            "010000000200000002000000c8000000c900000000000000");

  EXPECT_EQ(wire_hex(routing::TopoPromoteReq{1, 0xa0, 4}),
            "01000000a000000004000000");
}

// ---------------------------------------------------------------------------
// Corrupt input.  A count of 0xFFFFFFFF must fail as a CodecError before
// anything is reserved for it, not as std::bad_alloc: every 4-byte window
// of a populated encoding is overwritten with 0xFF bytes in turn, and each
// decode must either succeed or throw CodecError.
// ---------------------------------------------------------------------------

template <typename M>
void expect_corrupt_counts_rejected(const M& m) {
  const Buffer good = encode_message(m);
  size_t rejected = 0;
  for (size_t i = 0; i + 4 <= good.size(); ++i) {
    Buffer bad = good;
    std::memset(bad.data() + i, 0xff, 4);
    try {
      decode_message<M>(bad);
    } catch (const CodecError&) {
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << typeid(M).name() << ", window at byte " << i << ": "
                    << e.what();
    }
  }
  EXPECT_GT(rejected, 0u) << typeid(M).name() << ": no window was rejected";
}

TEST(CorruptCount, StorageMessagesRejectHugeCounts) {
  storage::TccReadReq rq;
  rq.keys = {1, 2};
  rq.cached_ts = {Timestamp(3), Timestamp(4)};
  expect_corrupt_counts_rejected(rq);

  storage::TccReadResp rr;
  rr.entries.push_back({1, storage::TccReadResp::Status::kValue, "v",
                        Timestamp(2), Timestamp(3), true});
  rr.entries.push_back({4, storage::TccReadResp::Status::kMiss, {}, {}, {},
                        false});
  expect_corrupt_counts_rejected(rr);

  storage::TccPrepareReq prep;
  prep.write_keys = {5, 6};
  expect_corrupt_counts_rejected(prep);

  storage::TccCommitReq commit;
  commit.writes = {storage::KeyValue{7, "w"}};
  expect_corrupt_counts_rejected(commit);

  expect_corrupt_counts_rejected(storage::SubscribeReq{{8, 9}, 1});

  storage::PushBatchMsg batch;
  batch.updates = {storage::PushUpdate{11, "b", Timestamp(3)}};
  expect_corrupt_counts_rejected(batch);

  expect_corrupt_counts_rejected(golden_chain());

  storage::TccMigrateOutReq out;
  out.table.partitions = {100, 101};
  out.table.slot_owner = {0, 1};
  out.table.replicas = {{200}, {}};
  expect_corrupt_counts_rejected(out);

  storage::TccMigrateOutResp out_resp;
  out_resp.last_heard = {Timestamp(5)};
  out_resp.chains = {golden_chain()};
  expect_corrupt_counts_rejected(out_resp);

  storage::TccMigrateInReq in;
  in.last_heard = {Timestamp(6)};
  in.chains = {golden_chain()};
  expect_corrupt_counts_rejected(in);

  storage::TccReplInstallReq inst;
  inst.writes = {storage::KeyValue{12, "r"}};
  expect_corrupt_counts_rejected(inst);

  storage::TccBackfillReq fill;
  fill.resolved = {storage::ResolvedTxn{13, Timestamp(7)}};
  fill.chains = {golden_chain()};
  fill.epoch = 2;
  expect_corrupt_counts_rejected(fill);

  expect_corrupt_counts_rejected(storage::EvGetReq{{14, 15}});
  expect_corrupt_counts_rejected(storage::EvGetResp{{golden_item()}, 1});
  expect_corrupt_counts_rejected(storage::EvPutReq{{golden_item()}});
  expect_corrupt_counts_rejected(
      storage::EvPutResp{{storage::EvVersion{1, 2}}, 3});
  expect_corrupt_counts_rejected(storage::EvGossipMsg{4, {golden_item()}});
}

TEST(CorruptCount, CacheFaasAndClientMessagesRejectHugeCounts) {
  cache::CacheReadReq cq;
  cq.keys = {1, 2};
  expect_corrupt_counts_rejected(cq);

  cache::CacheReadResp cr;
  cr.entries = {storage::VersionedValue{3, "c", Timestamp(1), Timestamp(2)}};
  cr.from_cache = {true};
  expect_corrupt_counts_rejected(cr);

  cache::HydroReadReq hq;
  hq.keys = {4};
  hq.context.require(5, 6, 7, 1);
  expect_corrupt_counts_rejected(hq);

  const cache::StoredDep dep{8, 9, 10, 1};
  cache::HydroReadEntry he{11, "he", 12, 13, cache::DepList({dep})};
  expect_corrupt_counts_rejected(he);
  cache::HydroReadResp hr;
  hr.entries = {he};
  hr.from_cache = {false};
  expect_corrupt_counts_rejected(hr);
  expect_corrupt_counts_rejected(cache::HydroStored{"hs", {{dep}}});

  expect_corrupt_counts_rejected(cache::PlainReadReq{{14}});
  expect_corrupt_counts_rejected(
      cache::PlainReadResp{false, {storage::KeyValue{15, "pl"}}});

  expect_corrupt_counts_rejected(faas::FunctionSpec{"fn", {1}, {2}});
  expect_corrupt_counts_rejected(golden_spec());
  faas::StartDagMsg start;
  start.spec = golden_spec();
  expect_corrupt_counts_rejected(start);
  faas::TriggerMsg trig;
  trig.spec = golden_spec();
  trig.placement = {16, 17};
  expect_corrupt_counts_rejected(trig);

  expect_corrupt_counts_rejected(workload::StepArgs{{18, 19}});
  expect_corrupt_counts_rejected(workload::SinkArgs{{20}, 21, "sk"});

  client::FaasTccContext tcc;
  tcc.write_set[22] = "t";
  expect_corrupt_counts_rejected(tcc);
  client::HydroContext hctx;
  hctx.deps.require(23, 24, 25, 1);
  hctx.write_set[26] = "h";
  expect_corrupt_counts_rejected(hctx);
  client::HydroSession session;
  session.deps.require(27, 28, 29, 1);
  expect_corrupt_counts_rejected(session);
  client::EventualContext ev;
  ev.write_set[30] = "e";
  expect_corrupt_counts_rejected(ev);

  routing::RoutingTable t;
  t.partitions = {100, 101};
  t.slot_owner = {1, 0};
  t.replicas = {{200, 201}, {}};
  expect_corrupt_counts_rejected(t);
}

// A status byte above kWrongOwner is corrupt input: decode rejects it
// instead of guessing which fields follow.
TEST(CorruptCount, TccReadRespRejectsUnknownStatus) {
  storage::TccReadResp rr;
  rr.entries.push_back({1, storage::TccReadResp::Status::kValue, "v",
                        Timestamp(2), Timestamp(3), true});
  Buffer b = encode_message(rr);
  const size_t status_at = 8 + 4 + 8;  // stable_time, count, key
  ASSERT_EQ(b[status_at], 0u);
  b[status_at] = 4;
  EXPECT_THROW(decode_message<storage::TccReadResp>(b), CodecError);
  b[status_at] = 0xff;
  EXPECT_THROW(decode_message<storage::TccReadResp>(b), CodecError);
}

}  // namespace
}  // namespace faastcc
