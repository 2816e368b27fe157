// One partition (shard) of the FaaSTCC TCC storage layer.
//
// A Wren-style design on hybrid logical clocks:
//   * reads serve the newest version at or below min(requested snapshot,
//     global stable time), together with a *promise* — the horizon up to
//     which the returned version is guaranteed to stay the correct read;
//   * multi-partition writes run prepare/commit: a pending prepare pins the
//     participant's safe time, so the global stable time cannot pass a
//     transaction's commit timestamp until all of its writes are installed
//     (this is what makes updates atomically visible);
//   * partitions gossip safe times; stable time = min over partitions;
//   * a pub/sub service pushes fresh versions of subscribed keys to caches
//     every `push_period` (the paper's 50 ms cache refresh period).
#pragma once

#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/history.h"
#include "common/fifo_window.h"
#include "common/hlc.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "net/rpc.h"
#include "routing/routing_table.h"
#include "sim/future.h"
#include "storage/messages.h"
#include "storage/mv_store.h"
#include "storage/stabilizer.h"
#include "storage/subscribers.h"

namespace faastcc::storage {

struct TccPartitionParams {
  Duration gossip_period = milliseconds(5);
  Duration push_period = milliseconds(50);  // cache refresh period (§6.1)
  // Stabilization exchange topology: kMesh is the paper-faithful §5
  // all-to-all broadcast (O(P²) messages per gossip round, one hop of
  // staleness); kTree aggregates safe times over a deterministic k-ary
  // tree of partition ids (O(P) messages, up to 2·depth rounds of
  // staleness).  See docs/performance.md, "Stabilization topologies".
  StabTopology stab_topology = StabTopology::kMesh;
  int tree_fanout = 4;  // k of the aggregation tree (>= 1)
  Duration gc_window = seconds(30);   // history kept behind the stable time
  Duration gc_period = seconds(2);
  Duration request_cpu = microseconds(15);  // fixed per-request service time
  Duration per_key_cpu = microseconds(2);
  int64_t clock_offset_us = 0;  // simulated residual NTP skew
  // A prepare whose commit/abort never arrives (lost message, abandoned
  // coordinator) would pin the safe time — and therefore the global stable
  // time — forever.  After this TTL the partition unilaterally expires it.
  // Must comfortably exceed the coordinator's commit retry horizon; see
  // docs/simulation.md "Fault model".  0 disables expiry.
  Duration prepare_ttl = seconds(5);
  // Capacity of the resolved-transaction dedup table (FIFO eviction).
  // Entries only matter within the coordinator's retry horizon, so the
  // default is generous; tests shrink it to force eviction races.
  size_t resolved_cap = 1 << 16;
  // Replication (replication_factor > 0 only): a follower that has not
  // received a seal beat from its leader for this long presumes the leader
  // dead and bids for promotion.  Must comfortably exceed the gossip
  // period (seals piggyback the gossip beat) plus a loss burst.
  Duration repl_lease_timeout = milliseconds(60);
  // Chaos knobs (tests/fuzzer only): each re-enables one historical bug so
  // the consistency oracle can demonstrate it catches the violation.
  // Answer ok=true for a commit retry of an expired/aborted txn without
  // installing anything (the lost-write-ack bug).
  bool chaos_ack_expired_commit = false;
  // Acknowledge commits without installing the writes at all.
  bool chaos_drop_install = false;
  // Install every committed write twice, the second at ts.next().
  bool chaos_double_install = false;
  // Fast path ignores dep_ts and assigns a tiny commit timestamp, breaking
  // causal order (commit ts below read/dep timestamps).
  bool chaos_ignore_dep = false;
};

class TccPartition {
 public:
  TccPartition(net::Network& network, net::Address self, PartitionId id,
               std::vector<net::Address> all_partitions,
               TccPartitionParams params, obs::Tracer* tracer = nullptr,
               check::HistorySink* oracle = nullptr);

  // Spawns the gossip, push and GC background loops.  Idempotent: a
  // deferred joiner calls this again through activation.
  void start();

  // ---- Epoch-versioned routing / elastic scale-out ------------------------

  // Adopts `table` (no-op unless strictly newer than the current one).
  // The first adoption arms the RPC epoch gate on the client-facing
  // methods; kTccAbort stays ungated on purpose — post-bump cleanup must
  // still reach old owners holding pending prepares.
  void set_routing(routing::TablePtr table);
  // Topology-service endpoint for pull-based refresh: a gated request
  // stamped with a newer epoch than ours triggers a kTopoGet fetch, so a
  // partition that missed the broadcast still converges.
  void set_topo_service(net::Address topo);
  // Optional shared metrics registry (handoff-stall histogram, migration
  // counters).  Entries are created lazily, so non-elastic runs' metric
  // listings are unchanged.
  void set_metrics(Metrics* m) { metrics_ = m; }

  // Joiner lifecycle: construct -> defer_serving() -> begin_join(table, n)
  // -> (n migrate-in parcels applied) -> activate (internal).  While
  // deferred, client-facing handlers park on a barrier instead of serving
  // from an empty store.
  void defer_serving();
  void begin_join(routing::TablePtr table, size_t expected_sources);
  bool serving() const { return serving_; }
  routing::TablePtr routing_table() const { return table_; }

  // ---- Elastic scale-IN ----------------------------------------------------

  // Survivor side of a contraction: adopt `table` (which no longer lists
  // the retiring partitions) and pause client traffic until
  // `expected_sources` migrate-in parcels have landed.  Unlike begin_join
  // the store keeps every chain it already owns — only the inherited slots
  // are empty — so the handoff floor is scoped to the migrated keys (a
  // pending prepare for a pre-owned key may legitimately commit below it).
  void begin_acquire(routing::TablePtr table, size_t expected_sources);
  // Source side, after a successful drain: stop publishing into gossip,
  // push and lease channels.  The instance stays constructed (a later
  // scale-out may re-join it via begin_join).
  void retire();
  bool retired() const { return retired_; }

  // ---- Per-slot replication (leader + k followers) ------------------------

  // Leader side: the follower addresses of this slot.  All start caught-up
  // (the cluster preloads follower stores alongside the leader's).  A
  // follower whose replication stream the leader cannot keep flowing is
  // moved to the "behind" set — excluded from the seal quorum and
  // backfilled from the chain head on a later beat.
  void set_followers(std::vector<net::Address> followers);
  // Follower side: construct -> make_follower(leader) -> start_follower().
  // A follower parks client traffic (it is not in the routing table) and
  // runs only the lease loop until promoted.
  void make_follower(net::Address leader);
  void start_follower();
  bool is_follower() const { return repl_role_ == ReplRole::kFollower; }
  // Follower's replication progress (tests / cluster preload).
  Timestamp sealed_safe() const { return sealed_safe_; }
  uint64_t repl_applied_seq() const { return repl_applied_seq_; }

  net::Address address() const { return rpc_.address(); }
  PartitionId id() const { return id_; }
  Timestamp stable_time() const { return stabilizer_.stable_time(); }

  // Safe time: no transaction will ever commit here with ts <= safe_time().
  Timestamp safe_time();

  MvStore& store() { return store_; }
  const MvStore& store() const { return store_; }

  // Registers a subscriber directly (pre-warm setup path; the protocol
  // path is the kTccSubscribe RPC).
  void add_subscriber(Key k, net::Address cache) {
    if (subscribers_.add(k, cache)) {
      if (++subscriber_refs_[cache] == 1) {
        subscriber_addresses_.insert(cache);
      }
    }
  }
  // Trims the subscriber lists once the setup path is done adding.
  void shrink_subscribers() { subscribers_.shrink_to_fit(); }

  // True when the current routing table assigns `k` here (or no table is
  // installed — the static pre-elastic world).  Handlers re-check after
  // every CPU sleep: a chain can be handed away while a handler sleeps.
  // The address check keeps a deposed leader — crashed, then revived after
  // a failover promoted its follower — from serving chains it no longer
  // owns: the slot still maps to its partition id, but to the promoted
  // follower's address.
  bool owns(Key k) const {
    return table_ == nullptr ||
           (table_->partition_of(k) == id_ &&
            table_->partitions[id_] == rpc_.address());
  }

 private:
  sim::Task<Buffer> on_read(Buffer req, net::Address from);
  sim::Task<Buffer> on_prepare(Buffer req, net::Address from);
  sim::Task<Buffer> on_commit(Buffer req, net::Address from);
  sim::Task<Buffer> on_abort(Buffer req, net::Address from);
  // SI first-committer-wins check; locks the keys on success.
  bool si_check_and_lock(TxnId txn, Timestamp snapshot_ts,
                         const std::vector<Key>& keys);
  void release_locks(TxnId txn);
  void resolve_pending(TxnId txn);
  sim::Task<Buffer> on_subscribe(Buffer req, net::Address from);
  sim::Task<Buffer> on_unsubscribe(Buffer req, net::Address from);
  void on_gossip(Buffer msg, net::Address from);
  // Tree-topology stabilization (stabilization_topology=tree).
  void on_safe_up(Buffer msg, net::Address from);
  void on_stable_down(Buffer msg, net::Address from);
  void tree_gossip_round();
  // Per-round stab.* metric accounting (pure state: no events, no
  // randomness — schedules are unchanged by recording).
  void note_gossip_round(uint64_t msgs_sent);
  // Adds `by` to the registry counter `name`.  Each call is a name lookup,
  // so only cold paths (retries, expiry, handoff, replication) count here.
  void count(std::string_view name, uint64_t by = 1) {
    if (metrics_ != nullptr) metrics_->counter(name).inc(by);
  }
  sim::Task<Buffer> on_migrate_out(Buffer req, net::Address from);
  sim::Task<Buffer> on_migrate_in(Buffer req, net::Address from);

  // Replication handlers (follower side) and leader-side drivers.
  sim::Task<Buffer> on_repl_install(Buffer req, net::Address from);
  sim::Task<Buffer> on_repl_seal(Buffer req, net::Address from);
  sim::Task<Buffer> on_backfill(Buffer req, net::Address from);
  void apply_repl_frame(const TccReplInstallReq& q);
  sim::Task<bool> repl_send_one(net::Address follower, TccReplInstallReq frame);
  sim::Task<void> repl_send_quiet(net::Address follower,
                                  TccReplInstallReq frame);
  sim::Task<void> replicate_commit(TxnId txn, Timestamp commit_ts,
                                   std::vector<KeyValue> writes);
  sim::Task<void> seal_round(Timestamp safe, uint64_t seq_high);
  sim::Task<void> backfill_one(net::Address follower);
  sim::Task<void> lease_loop();
  void promote_self();
  // The safe time this partition publishes into the stabilizer.  Solo:
  // safe_time() verbatim.  Replicated leader: the newest safe sealed at
  // every caught-up follower — publishing a delayed safe is always sound
  // (safe times are monotone), and it is what keeps promises derived from
  // the stable time inside a promoted follower's handoff floor.
  Timestamp published_safe();

  // Whether this node is the address the table names for its own slot.  A
  // revived deposed leader fails this and must keep its gossip and push
  // streams quiet — the promoted follower owns those channels now.  A
  // partition the table no longer lists (retired by a contraction) fails it
  // too: its channels belong to nobody.
  bool is_current_leader() const {
    if (table_ == nullptr) return true;
    return id_ < table_->partitions.size() &&
           table_->partitions[id_] == rpc_.address();
  }
  sim::Task<void> parked();
  void release_parked();
  void activate();
  sim::Task<void> refresh_table();

  sim::Task<void> gossip_loop();
  sim::Task<void> push_loop();
  sim::Task<void> gc_loop();

  uint64_t physical_now_us() const;
  void install_writes(const TccCommitReq& req);
  TccReadResp::Entry read_one(Key key, Timestamp eff, Timestamp cached_ts);

  net::RpcNode rpc_;
  PartitionId id_;
  std::vector<net::Address> all_partitions_;
  TccPartitionParams params_;
  obs::Tracer* tracer_ = nullptr;
  HlcClock clock_;
  MvStore store_;
  Stabilizer stabilizer_;
  // Outstanding prepares: txn id -> prepare timestamp + registration time.
  // The min entry caps the safe time until the matching commit or abort
  // (aborts occur in Snapshot Isolation mode on write-write conflicts, and
  // when a coordinator gives up after retry exhaustion).
  struct PendingTxn {
    Timestamp ts;
    SimTime since = 0;
  };
  std::map<Timestamp, TxnId> pending_by_ts_;
  std::unordered_map<TxnId, PendingTxn> pending_by_txn_;
  // Recently committed/aborted transactions (aborts record Timestamp::min()).
  // Duplicated or retried prepares/commits of a resolved transaction are
  // answered from here instead of re-pinning the safe time or re-installing
  // versions.  Bounded to params_.resolved_cap by FIFO eviction of the
  // oldest entries — entries only matter within the coordinator's retry
  // horizon (well under a second), so oldest-first is the right order.  A
  // wholesale clear would also forget *recent* transactions, and a commit
  // retry landing just after it would re-install its writes — on the fast
  // path minting a second version at a fresh timestamp.
  FifoWindow<TxnId, Timestamp> resolved_;
  // Highest safe time this instance gossiped (mesh or tree).  A
  // coordinator-timestamped commit with no pending prepare here must not
  // install at or below it: promises already rest on that safe time.
  Timestamp published_high_ = Timestamp::min();
  void remember_resolved(TxnId txn, Timestamp ts);
  void expire_stale_prepares();
  // Snapshot Isolation: written keys locked by prepared-but-unresolved
  // transactions (first-committer-wins).
  std::unordered_map<Key, TxnId> write_locks_;
  std::unordered_map<TxnId, std::vector<Key>> locked_keys_;
  void drop_subscriber(Key k, net::Address cache);

  // Pub/sub.
  SubscriberTable subscribers_;
  std::unordered_map<net::Address, size_t> subscriber_refs_;
  std::set<net::Address> subscriber_addresses_;
  std::unordered_set<Key> dirty_;
  // Per-subscriber push-channel sequence (first push carries seq 1) and the
  // newest control-channel (subscribe/unsubscribe) sequence processed per
  // subscriber; stale control retries are dropped.
  std::unordered_map<net::Address, uint64_t> push_seq_out_;
  std::unordered_map<net::Address, uint64_t> ctl_seq_seen_;
  bool ctl_stale(uint64_t seq, net::Address from);
  check::HistorySink* oracle_ = nullptr;
  uint64_t chaos_ticks_ = 0;  // counter for chaos_ignore_dep timestamps
  // Stabilization messages received since the last local gossip round
  // (mesh gossip, tree reports and broadcasts) — the stab.fan_in sample.
  uint64_t gossip_in_since_round_ = 0;

  // ---- Elastic state ------------------------------------------------------
  routing::TablePtr table_;
  net::Address topo_service_ = 0;
  Metrics* metrics_ = nullptr;
  bool serving_ = true;
  bool started_ = false;
  bool refresh_inflight_ = false;
  // One promise per parked request (sim::Future is single-waiter).
  std::vector<sim::Promise<bool>> parked_;
  // Join state (target side of a handoff).
  uint32_t join_epoch_ = 0;
  size_t join_expected_ = 0;
  std::set<PartitionId> join_applied_;
  Timestamp handoff_floor_ = Timestamp::min();
  // Scale-in: a survivor acquiring drained slots scopes the oracle's
  // handoff-floor check to the keys it inherited (acquired_keys_); a
  // retired source stops publishing into shared channels.
  bool acquiring_ = false;
  std::vector<Key> acquired_keys_;
  bool retired_ = false;
  // Bumped by retire() so background loops spawned before the retirement
  // exit on their next beat even if the instance re-joins (and respawns
  // fresh loops) before they wake — no loop ever runs twice over.
  uint64_t loop_gen_ = 0;
  // Replay cache for idempotent migrate-out: the chains leave the store on
  // the first attempt, so a retried request must get the original parcel.
  std::map<std::pair<uint32_t, PartitionId>, TccMigrateOutResp>
      migrate_out_cache_;

  // ---- Replication state --------------------------------------------------
  enum class ReplRole { kSolo, kLeader, kFollower };
  ReplRole repl_role_ = ReplRole::kSolo;
  // Leader: followers in the seal quorum, and followers that fell behind
  // (stream retry exhausted) awaiting a backfill.
  std::vector<net::Address> followers_;
  std::vector<net::Address> followers_behind_;
  std::set<net::Address> backfill_inflight_;
  uint64_t repl_seq_ = 0;                     // newest assigned stream seq
  Timestamp sealed_pub_ = Timestamp::min();   // newest safe sealed everywhere
  bool seal_inflight_ = false;
  // Follower: replication stream state and leader lease.
  net::Address leader_addr_ = 0;
  uint64_t repl_applied_seq_ = 0;             // contiguous stream high-water
  std::set<uint64_t> repl_sparse_;            // applied seqs above high-water
  uint64_t leader_seq_high_ = 0;              // leader's advertised seq high
  Timestamp sealed_safe_ = Timestamp::min();  // newest sealed safe
  Timestamp repl_floor_ = Timestamp::min();   // max replicated install ts
  SimTime last_lease_beat_ = 0;
  bool lag_grace_used_ = false;
};

}  // namespace faastcc::storage
