// Wire messages of the storage layer (TCC partitions and the eventually
// consistent store).  Encoded sizes are exact and feed the paper's byte
// metrics (Fig. 5, Fig. 7).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/hlc.h"
#include "common/serialize.h"
#include "common/types.h"
#include "routing/routing_table.h"

namespace faastcc::storage {

// ---------------------------------------------------------------------------
// Method ids.
// ---------------------------------------------------------------------------

enum TccMethod : uint16_t {
  kTccRead = 1,
  kTccPrepare = 2,
  kTccCommit = 3,
  kTccSubscribe = 4,
  kTccUnsubscribe = 5,
  kTccGossip = 6,   // one-way: stabilization
  // 7 is retired (it was a per-key push frame); do not reuse it.
  kTccAbort = 8,    // releases prepares after an SI conflict
  // Elastic scale-out handoff (coordinator-driven, idempotent).
  kTccMigrateOut = 9,  // source: seal moved slots, extract their chains
  kTccMigrateIn = 10,  // target: install chains + stabilization seed
  // Tree-topology stabilization (stabilization_topology=tree): safe-time
  // minima travel up a k-ary aggregation tree over partition ids and the
  // root's fold travels back down, O(P) messages per round instead of the
  // mesh's O(P²) broadcast.
  kTccSafeUp = 11,      // one-way: child -> parent subtree minimum
  kTccStableDown = 12,  // one-way: parent -> child root fold
  kTccPushBatch = 13,  // one-way: pub/sub update batch to one subscriber
  // Per-slot replication (leader -> follower, replication_factor > 0).
  kTccReplInstall = 14,  // stream one committed txn's installs
  kTccReplSeal = 15,     // seal a safe time at the follower (lease beat)
  kTccBackfill = 16,     // full chain-snapshot re-sync for a lagging follower
};

enum EvMethod : uint16_t {
  kEvGet = 20,
  kEvPut = 21,
  kEvGossipDigest = 22,  // one-way: anti-entropy between replicas
  kEvStableCut = 23,     // one-way: gossiped GC horizon for dependencies
  kEvSubscribe = 24,     // caches subscribe to update notifications
  kEvUnsubscribe = 25,
  kEvPush = 26,          // one-way: update batch to subscribed caches
};

// ---------------------------------------------------------------------------
// TCC storage messages.  Each struct lists its wire fields in kFields, in
// wire order (see common/serialize.h).
// ---------------------------------------------------------------------------

// One versioned value as served by the TCC store: the paper's tuple
// <k, v, t_v, promise_v>.
struct VersionedValue {
  Key key = 0;
  Value value;
  Timestamp ts;
  Timestamp promise;

  static constexpr auto kFields =
      std::tuple{&VersionedValue::key, &VersionedValue::value,
                 &VersionedValue::ts, &VersionedValue::promise};
};

// TCC_ReadTX request.  `snapshot` is the upper bound (the client's s_high;
// Timestamp::max() on the first read of a DAG).  For each key the client may
// supply the timestamp of the version it already caches; when the store
// would serve exactly that version it answers "unchanged" with a refreshed
// promise and no value bytes (the small responses of Fig. 7).
//
// Hand codec: the two parallel vectors travel interleaved, one
// (key, cached ts) pair per key.
struct TccReadReq {
  Timestamp snapshot;
  std::vector<Key> keys;
  std::vector<Timestamp> cached_ts;  // parallel to keys; min() == none

  template <typename W>
  void encode(W& w) const {
    encode_to(w, snapshot);
    w.put_u32(static_cast<uint32_t>(keys.size()));
    for (size_t i = 0; i < keys.size(); ++i) {
      w.put_u64(keys[i]);
      encode_to(w, cached_ts[i]);
    }
  }
  static TccReadReq decode(BufReader& r) {
    TccReadReq q;
    q.snapshot = decode_from<Timestamp>(r);
    const uint32_t n = r.get_count(16);  // key + cached ts
    q.keys.reserve(n);
    q.cached_ts.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      q.keys.push_back(r.get_u64());
      q.cached_ts.push_back(decode_from<Timestamp>(r));
    }
    return q;
  }
};

// Hand codec: what follows an entry's key and status byte depends on the
// status.
struct TccReadResp {
  enum class Status : uint8_t {
    kValue = 0,      // full version attached
    kUnchanged = 1,  // client's cached version still current; promise updated
    kMiss = 2,       // no version <= snapshot survives (GC'd or never written)
    // The request matched this partition's epoch when admitted, but the
    // key's chain was handed to another partition while the handler slept
    // (elastic scale-out).  No version data: the client must re-route
    // through a fresh routing table.
    kWrongOwner = 3,
  };
  struct Entry {
    Key key = 0;
    Status status = Status::kMiss;
    Value value;        // only for kValue
    Timestamp ts;       // kValue / kUnchanged
    Timestamp promise;  // kValue / kUnchanged
    // True when the served version has no successor yet: its promise is
    // the stable time and may later be extended; a version with a known
    // successor has a final promise.
    bool open = false;
  };
  std::vector<Entry> entries;
  Timestamp stable_time;  // the partition's current view; diagnostic

  template <typename W>
  void encode(W& w) const {
    encode_to(w, stable_time);
    w.put_u32(static_cast<uint32_t>(entries.size()));
    for (const auto& e : entries) {
      w.put_u64(e.key);
      w.put_u8(static_cast<uint8_t>(e.status));
      if (e.status == Status::kValue || e.status == Status::kUnchanged) {
        encode_to(w, e.ts);
        encode_to(w, e.promise);
        w.put_bool(e.open);
      }
      if (e.status == Status::kValue) encode_to(w, e.value);
    }
  }
  static TccReadResp decode(BufReader& r) {
    TccReadResp resp;
    resp.stable_time = decode_from<Timestamp>(r);
    const uint32_t n = r.get_count(9);  // key + status
    resp.entries.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      Entry e;
      e.key = r.get_u64();
      const uint8_t status = r.get_u8();
      if (status > static_cast<uint8_t>(Status::kWrongOwner)) {
        throw CodecError("TccReadResp: unknown entry status");
      }
      e.status = static_cast<Status>(status);
      if (e.status == Status::kValue || e.status == Status::kUnchanged) {
        e.ts = decode_from<Timestamp>(r);
        e.promise = decode_from<Timestamp>(r);
        e.open = r.get_bool();
      }
      if (e.status == Status::kValue) e.value = decode_from<Value>(r);
      resp.entries.push_back(std::move(e));
    }
    return resp;
  }
};

struct KeyValue {
  Key key = 0;
  Value value;

  static constexpr auto kFields = std::tuple{&KeyValue::key, &KeyValue::value};
};

// Prepare phase of a multi-partition commit: reserves a slot so that the
// participant's safe time (and hence the global stable time) cannot advance
// past the eventual commit timestamp before the writes are installed.
//
// In Snapshot Isolation mode (the extension of §7 of the paper) the
// prepare additionally performs first-committer-wins write-write conflict
// detection: it fails if any written key has a version newer than the
// transaction's read snapshot, or is currently prepared by another
// transaction.
struct TccPrepareReq {
  TxnId txn = 0;
  Timestamp dep_ts;  // causal lower bound (client's reads + session order)
  bool si_mode = false;
  Timestamp snapshot_ts;     // SI: the transaction's read snapshot (s_high)
  std::vector<Key> write_keys;  // SI: written keys owned by this partition

  static constexpr auto kFields =
      std::tuple{&TccPrepareReq::txn, &TccPrepareReq::dep_ts,
                 &TccPrepareReq::si_mode, &TccPrepareReq::snapshot_ts,
                 &TccPrepareReq::write_keys};
};

struct TccPrepareResp {
  Timestamp prepare_ts;
  bool ok = true;  // false: SI write-write conflict, transaction must abort

  static constexpr auto kFields =
      std::tuple{&TccPrepareResp::prepare_ts, &TccPrepareResp::ok};
};

// Releases a prepare without installing anything (SI conflict abort).
struct TccAbortReq {
  TxnId txn = 0;

  static constexpr auto kFields = std::tuple{&TccAbortReq::txn};
};

// Commit phase.  In the general (multi-partition) case `commit_ts` was
// computed by the coordinator from the prepare responses; in the
// single-partition fast path it is Timestamp::min() and the partition
// assigns a timestamp itself, above `dep_ts`.
struct TccCommitReq {
  TxnId txn = 0;
  Timestamp commit_ts;
  Timestamp dep_ts;
  std::vector<KeyValue> writes;  // only the keys owned by this partition

  static constexpr auto kFields =
      std::tuple{&TccCommitReq::txn, &TccCommitReq::commit_ts,
                 &TccCommitReq::dep_ts, &TccCommitReq::writes};
};

struct TccCommitResp {
  bool ok = true;
  // The commit timestamp: the one the partition assigned on the
  // single-partition fast path, else the coordinator's (echoed on refusals
  // of never-installed commits too).
  Timestamp commit_ts;

  static constexpr auto kFields =
      std::tuple{&TccCommitResp::ok, &TccCommitResp::commit_ts};
};

struct SubscribeReq {
  std::vector<Key> keys;
  // Per-subscriber control-channel sequence number; a partition drops
  // (un)subscribe requests older than the newest it has processed, so a
  // duplicated/delayed retry cannot resurrect a cancelled subscription.
  // 0 = unsequenced (the eventual store's caches don't need the ordering).
  uint64_t seq = 0;

  static constexpr auto kFields =
      std::tuple{&SubscribeReq::keys, &SubscribeReq::seq};
};

// One-way stabilization gossip: partition `partition` will never again
// commit a transaction with timestamp <= `safe_time`.
struct GossipMsg {
  PartitionId partition = 0;
  Timestamp safe_time;

  static constexpr auto kFields =
      std::tuple{&GossipMsg::partition, &GossipMsg::safe_time};
};

// One update inside a pub/sub push frame: the promise is not shipped — a
// pushed promise is always max(version ts, stable at push), and the frame
// header carries the stable time once, so the receiver re-derives it
// losslessly.
struct PushUpdate {
  Key key = 0;
  Value value;
  Timestamp ts;

  static constexpr auto kFields =
      std::tuple{&PushUpdate::key, &PushUpdate::value, &PushUpdate::ts};
};

// One-way pub/sub push: fresh versions of subscribed keys plus the stable
// time at push, one frame per subscriber per refresh period.
//
// Pushes are sent every refresh period even when no subscribed key
// changed: the dirty set is complete for subscribed keys, so a subscriber
// may extend the promise of any *open* cached version of this partition
// not listed in `updates` to `stable_time`.
struct PushBatchMsg {
  PartitionId partition = 0;
  // Per-subscriber channel sequence (first push is 1).  Pushes are one-way
  // and best-effort; a gap tells the subscriber it may have missed the
  // announcement of a successor version, so it must close open entries of
  // this partition until a re-announce arrives.  0 = unsequenced.
  uint64_t seq = 0;
  Timestamp stable_time;
  std::vector<PushUpdate> updates;

  static constexpr auto kFields =
      std::tuple{&PushBatchMsg::partition, &PushBatchMsg::seq,
                 &PushBatchMsg::stable_time, &PushBatchMsg::updates};
};

// ---------------------------------------------------------------------------
// Tree-topology stabilization.
// ---------------------------------------------------------------------------

// One-way child -> parent: min of the sender's safe time and every subtree
// minimum its own children reported.  `membership` is the partition count
// the fold covered; the receiver drops smaller-tagged reports (they omit
// joiners' floors) and adopts larger tags — see Stabilizer.
struct SafeUpMsg {
  PartitionId partition = 0;  // sender (a direct child of the receiver)
  uint32_t membership = 0;
  Timestamp subtree_min;

  static constexpr auto kFields =
      std::tuple{&SafeUpMsg::partition, &SafeUpMsg::membership,
                 &SafeUpMsg::subtree_min};
};

// One-way parent -> child: the root's global fold, relayed one level per
// gossip round.  Tagged like SafeUpMsg and for the same reason.
struct StableDownMsg {
  uint32_t membership = 0;
  Timestamp stable;

  static constexpr auto kFields =
      std::tuple{&StableDownMsg::membership, &StableDownMsg::stable};
};

// ---------------------------------------------------------------------------
// Elastic scale-out handoff.
// ---------------------------------------------------------------------------

// One committed version inside a migrated chain (the promise is not
// shipped: promises are a serving-side construct re-derived at the target
// from its own stable view).
struct MigratedVersion {
  Value value;
  Timestamp ts;

  static constexpr auto kFields =
      std::tuple{&MigratedVersion::value, &MigratedVersion::ts};
};

// A whole per-key version chain leaving its old owner.
struct MigratedChain {
  Key key = 0;
  std::vector<MigratedVersion> versions;  // ascending ts

  static constexpr auto kFields =
      std::tuple{&MigratedChain::key, &MigratedChain::versions};
};

// Coordinator -> source partition: adopt `table` (sealing the slots it no
// longer owns) and extract the chains of every slot that moved from this
// partition to `target`.  Carrying the full table makes the request
// self-contained: a source that missed the epoch broadcast still seals
// correctly.  Idempotent — the source caches its response per
// (epoch, target) and replays it for duplicates/retries.
struct TccMigrateOutReq {
  routing::RoutingTable table;
  PartitionId target = 0;

  // The table goes last: its replica section is a trailing optional block
  // detected by remaining(), so nothing may follow it on the wire.
  static constexpr auto kFields =
      std::tuple{&TccMigrateOutReq::target, &TccMigrateOutReq::table};
};

struct TccMigrateOutResp {
  bool ok = true;
  // The source's safe time taken AFTER sealing: every promise the source
  // ever issued for the migrated keys is <= this, so it seeds the target's
  // clock (the target never commits at or below it).
  Timestamp safe_time;
  // The source's stabilizer snapshot (last-heard safe time per old
  // partition) — genuinely observed values, safe for the target to merge.
  std::vector<Timestamp> last_heard;
  std::vector<MigratedChain> chains;

  static constexpr auto kFields =
      std::tuple{&TccMigrateOutResp::ok, &TccMigrateOutResp::safe_time,
                 &TccMigrateOutResp::last_heard, &TccMigrateOutResp::chains};
};

// Coordinator -> target partition: one source's handoff parcel.  The
// target activates (starts serving) once parcels from all
// `expected_sources` distinct sources have been applied.  Idempotent per
// (epoch, source).
struct TccMigrateInReq {
  uint32_t epoch = 0;
  PartitionId source = 0;
  uint32_t expected_sources = 0;
  Timestamp source_safe;
  std::vector<Timestamp> last_heard;
  std::vector<MigratedChain> chains;

  static constexpr auto kFields =
      std::tuple{&TccMigrateInReq::epoch, &TccMigrateInReq::source,
                 &TccMigrateInReq::expected_sources,
                 &TccMigrateInReq::source_safe, &TccMigrateInReq::last_heard,
                 &TccMigrateInReq::chains};
};

struct TccMigrateInResp {
  bool ok = true;

  static constexpr auto kFields = std::tuple{&TccMigrateInResp::ok};
};

// ---------------------------------------------------------------------------
// Per-slot replication (leader + k followers).
// ---------------------------------------------------------------------------

// Leader -> follower, on the commit path: one committed transaction's
// installs.  `seq` is the leader's per-follower stream sequence number —
// contiguous at the follower means no frame was dropped; a hole that the
// leader's bounded retry could not close is repaired by kTccBackfill, not
// by re-streaming.  Applying is idempotent (installs dedup on (key, ts),
// the resolved record on txn), so duplicated or re-sent frames are
// at-most-once by construction.
struct TccReplInstallReq {
  TxnId txn = 0;
  Timestamp commit_ts;
  uint64_t seq = 0;
  std::vector<KeyValue> writes;

  static constexpr auto kFields =
      std::tuple{&TccReplInstallReq::txn, &TccReplInstallReq::commit_ts,
                 &TccReplInstallReq::seq, &TccReplInstallReq::writes};
};

struct TccReplInstallResp {
  bool ok = true;

  static constexpr auto kFields = std::tuple{&TccReplInstallResp::ok};
};

// Leader -> follower, every gossip beat: seal `safe` at the follower and
// renew the leader lease.  The leader only gossips a safe time into the
// stabilizer once every caught-up follower acked its seal, so any promise
// derived from it survives a promotion (the handoff floor is at least the
// sealed value).  `seq_high` is the leader's newest assigned stream seq;
// a follower whose contiguous high-water trails it knows it is lagging.
struct TccReplSealReq {
  Timestamp safe;
  uint64_t seq_high = 0;

  static constexpr auto kFields =
      std::tuple{&TccReplSealReq::safe, &TccReplSealReq::seq_high};
};

struct TccReplSealResp {
  bool ok = true;
  uint64_t applied_seq = 0;  // follower's contiguous stream high-water

  static constexpr auto kFields =
      std::tuple{&TccReplSealResp::ok, &TccReplSealResp::applied_seq};
};

// A (txn, commit_ts) pair from the leader's resolved-transaction window,
// shipped with a backfill so a promoted follower can dedup coordinator
// commit retries exactly as the dead leader would have.
struct ResolvedTxn {
  TxnId txn = 0;
  Timestamp ts;

  static constexpr auto kFields =
      std::tuple{&ResolvedTxn::txn, &ResolvedTxn::ts};
};

// Leader -> lagging/fresh follower: a full re-sync from the chain head
// (RethinkDB's broadcaster/listener backfill, collapsed to one frame at
// simulation scale).  Reuses the elastic handoff's chain shapes; applying
// is idempotent so a duplicated backfill is harmless.  `safe` doubles as
// a seal and `seq_high` fast-forwards the follower's stream high-water
// past any holes the backfill just filled.
struct TccBackfillReq {
  Timestamp safe;
  uint64_t seq_high = 0;
  std::vector<ResolvedTxn> resolved;
  std::vector<MigratedChain> chains;
  // Routing epoch the leader assembled this parcel under.  Trailing
  // optional (encoded only when nonzero) so pre-elastic parcels keep their
  // bytes; a follower refuses parcels older than its own table — a
  // pre-shrink leader's backfill must not resurrect drained chains at a
  // follower that already moved on.
  uint32_t epoch = 0;

  static constexpr auto kFields =
      std::tuple{&TccBackfillReq::safe, &TccBackfillReq::seq_high,
                 &TccBackfillReq::resolved, &TccBackfillReq::chains,
                 trailing_nonzero(&TccBackfillReq::epoch)};
};

struct TccBackfillResp {
  bool ok = true;

  static constexpr auto kFields = std::tuple{&TccBackfillResp::ok};
};

// ---------------------------------------------------------------------------
// Eventually consistent store (Anna stand-in) messages.
// ---------------------------------------------------------------------------

// Per-key version for the eventual store: a counter plus writer id,
// last-writer-wins.  HydroCache dependencies refer to these.
struct EvVersion {
  uint64_t counter = 0;
  uint64_t writer = 0;

  friend auto operator<=>(const EvVersion&, const EvVersion&) = default;

  static constexpr auto kFields =
      std::tuple{&EvVersion::counter, &EvVersion::writer};
};

struct EvItem {
  Key key = 0;
  EvVersion version;
  SimTime written_at = 0;  // assigned by the accepting replica; drives dep GC
  Value payload;  // opaque: HydroCache stores value + dependency metadata

  static constexpr auto kFields = std::tuple{
      &EvItem::key, &EvItem::version, &EvItem::written_at, &EvItem::payload};
};

struct EvGetReq {
  std::vector<Key> keys;

  static constexpr auto kFields = std::tuple{&EvGetReq::keys};
};

struct EvGetResp {
  std::vector<EvItem> found;  // keys absent from the replica are omitted
  SimTime global_cut = 0;     // piggybacked dependency-GC watermark

  static constexpr auto kFields =
      std::tuple{&EvGetResp::global_cut, &EvGetResp::found};
};

struct EvPutReq {
  std::vector<EvItem> items;

  static constexpr auto kFields = std::tuple{&EvPutReq::items};
};

struct EvPutResp {
  std::vector<EvVersion> versions;  // assigned versions, parallel to items
  SimTime global_cut = 0;           // piggybacked dependency-GC watermark

  static constexpr auto kFields =
      std::tuple{&EvPutResp::global_cut, &EvPutResp::versions};
};

// Anti-entropy batch between replicas of the same eventual partition.
// `sent_at` asserts: every write the sender accepted before this time has
// been included in this or an earlier batch to this peer.
struct EvGossipMsg {
  SimTime sent_at = 0;
  std::vector<EvItem> items;

  static constexpr auto kFields =
      std::tuple{&EvGossipMsg::sent_at, &EvGossipMsg::items};
};

// Gossiped dependency-GC horizon: the sending replica has applied every
// write accepted anywhere before `cut` (a wall-clock watermark derived from
// completed anti-entropy rounds).  The minimum across replicas bounds which
// dependencies are globally visible and may be pruned from metadata.
struct EvStableCutMsg {
  uint64_t replica = 0;
  SimTime cut = 0;

  static constexpr auto kFields =
      std::tuple{&EvStableCutMsg::replica, &EvStableCutMsg::cut};
};

}  // namespace faastcc::storage
