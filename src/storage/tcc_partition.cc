#include "storage/tcc_partition.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"
#include "routing/topology_service.h"
#include "sim/future.h"
#include "sim/when_all.h"

namespace faastcc::storage {

TccPartition::TccPartition(net::Network& network, net::Address self,
                           PartitionId id,
                           std::vector<net::Address> all_partitions,
                           TccPartitionParams params, obs::Tracer* tracer,
                           check::HistorySink* oracle)
    : rpc_(network, self),
      id_(id),
      all_partitions_(std::move(all_partitions)),
      params_(params),
      tracer_(tracer),
      clock_(id),
      stabilizer_(id, all_partitions_.size(), params.stab_topology,
                  static_cast<uint32_t>(params.tree_fanout < 1
                                            ? 1
                                            : params.tree_fanout)),
      oracle_(oracle) {
  rpc_.handle(kTccRead, [this](Buffer b, net::Address from) {
    return on_read(std::move(b), from);
  });
  rpc_.handle(kTccPrepare, [this](Buffer b, net::Address from) {
    return on_prepare(std::move(b), from);
  });
  rpc_.handle(kTccCommit, [this](Buffer b, net::Address from) {
    return on_commit(std::move(b), from);
  });
  rpc_.handle(kTccSubscribe, [this](Buffer b, net::Address from) {
    return on_subscribe(std::move(b), from);
  });
  rpc_.handle(kTccUnsubscribe, [this](Buffer b, net::Address from) {
    return on_unsubscribe(std::move(b), from);
  });
  rpc_.handle(kTccAbort, [this](Buffer b, net::Address from) {
    return on_abort(std::move(b), from);
  });
  rpc_.handle_oneway(kTccGossip, [this](Buffer b, net::Address from) {
    on_gossip(std::move(b), from);
  });
  rpc_.handle_oneway(kTccSafeUp, [this](Buffer b, net::Address from) {
    on_safe_up(std::move(b), from);
  });
  rpc_.handle_oneway(kTccStableDown, [this](Buffer b, net::Address from) {
    on_stable_down(std::move(b), from);
  });
  rpc_.handle(kTccMigrateOut, [this](Buffer b, net::Address from) {
    return on_migrate_out(std::move(b), from);
  });
  rpc_.handle(kTccMigrateIn, [this](Buffer b, net::Address from) {
    return on_migrate_in(std::move(b), from);
  });
  rpc_.handle(kTccReplInstall, [this](Buffer b, net::Address from) {
    return on_repl_install(std::move(b), from);
  });
  rpc_.handle(kTccReplSeal, [this](Buffer b, net::Address from) {
    return on_repl_seal(std::move(b), from);
  });
  rpc_.handle(kTccBackfill, [this](Buffer b, net::Address from) {
    return on_backfill(std::move(b), from);
  });
}

void TccPartition::start() {
  if (started_) return;
  started_ = true;
  // Seed the stabilizer with our own safe time so stable_time() is defined
  // before the first gossip round completes.
  const Timestamp safe = published_safe();
  stabilizer_.on_gossip(id_, safe);
  if (params_.stab_topology == StabTopology::kTree && stabilizer_.is_root()) {
    // Only the root's fold covers every member, so only the root may merge
    // its own fold.  With children this is a no-op (unheard children pin
    // the fold to min()); for a single-partition cell it makes the stable
    // time defined immediately, matching the mesh.
    stabilizer_.on_stable_broadcast(stabilizer_.membership_tag(),
                                    stabilizer_.fold_subtree_min(safe));
  }
  sim::spawn(gossip_loop());
  sim::spawn(push_loop());
  sim::spawn(gc_loop());
}

void TccPartition::set_routing(routing::TablePtr table) {
  if (table == nullptr) return;
  if (table_ != nullptr && table->epoch <= table_->epoch) return;
  const bool first = (table_ == nullptr);
  table_ = std::move(table);
  all_partitions_.assign(table_->partitions.begin(), table_->partitions.end());
  if (table_->num_partitions() < stabilizer_.num_partitions()) {
    stabilizer_.contract_membership(table_->num_partitions());
  } else {
    stabilizer_.extend_membership(table_->num_partitions());
  }
  rpc_.set_routing_epoch(table_->epoch);
  if (repl_role_ == ReplRole::kFollower && id_ < table_->partitions.size()) {
    if (table_->partitions[id_] == rpc_.address()) {
      // The cluster agreed on our promotion bid (or a broadcast of it beat
      // the bid's reply here): take over the slot.
      promote_self();
    } else {
      // Any other bump names the current leader; follow it.
      leader_addr_ = table_->partitions[id_];
    }
  }
  if (first) {
    // Gate the client-facing traffic on the epoch.  kTccAbort stays
    // ungated: post-bump cleanup of a NACKed commit must still reach the
    // OLD owners holding the pending prepares.  kTccGossip, migration and
    // pushes are epoch-agnostic by design.
    rpc_.gate_on_epoch(kTccRead);
    rpc_.gate_on_epoch(kTccPrepare);
    rpc_.gate_on_epoch(kTccCommit);
    rpc_.gate_on_epoch(kTccSubscribe);
    rpc_.gate_on_epoch(kTccUnsubscribe);
  }
}

void TccPartition::set_topo_service(net::Address topo) {
  topo_service_ = topo;
  rpc_.on_stale_epoch([this] {
    // A gated request carried a newer epoch than ours: we missed the
    // broadcast.  Pull the table; correctness never depends on the push.
    if (!refresh_inflight_) sim::spawn(refresh_table());
  });
  rpc_.handle_oneway(routing::kTopoUpdate, [this](Buffer b, net::Address) {
    auto t = decode_message<routing::RoutingTable>(b);
    rpc_.recycle(std::move(b));
    set_routing(routing::make_table(std::move(t)));
  });
}

sim::Task<void> TccPartition::refresh_table() {
  refresh_inflight_ = true;
  auto resp = co_await rpc_.call_raw_retry(topo_service_, routing::kTopoGet,
                                           Buffer{},
                                           net::routing_refresh_policy());
  if (resp.has_value()) {
    auto t = decode_message<routing::RoutingTable>(*resp);
    rpc_.recycle(std::move(*resp));
    set_routing(routing::make_table(std::move(t)));
  }
  refresh_inflight_ = false;
}

void TccPartition::defer_serving() {
  serving_ = false;
  // The joiner's stabilizer keeps the strict startup barrier (everyone at
  // min() until genuinely heard); migrated stabilizer snapshots and live
  // gossip lift it within a gossip period of activation.
}

void TccPartition::begin_join(routing::TablePtr table,
                              size_t expected_sources) {
  // Re-join of a previously retired instance: its background loops exited
  // at retirement, so activation must respawn them, the old join ledger
  // (sources of the original join) must not satisfy the new one, and
  // serving must drop until the new parcels land (retire() leaves it set;
  // a no-op for a fresh joiner, which deferred serving at construction).
  retired_ = false;
  started_ = false;
  serving_ = false;
  join_applied_.clear();
  join_epoch_ = table->epoch;
  join_expected_ = expected_sources;
  set_routing(std::move(table));
  // A joiner that owns no slots (or steals only empty ones) has nothing to
  // wait for.
  if (expected_sources == 0) activate();
}

void TccPartition::begin_acquire(routing::TablePtr table,
                                 size_t expected_sources) {
  serving_ = false;
  acquiring_ = true;
  acquired_keys_.clear();
  join_applied_.clear();
  join_epoch_ = table->epoch;
  join_expected_ = expected_sources;
  set_routing(std::move(table));
  if (expected_sources == 0) activate();
}

void TccPartition::retire() {
  retired_ = true;
  // Invalidate the running loops and let start() respawn fresh ones if a
  // later scale-out re-joins this instance.
  ++loop_gen_;
  started_ = false;
  // serving_ stays true: owns() already refuses every key (no slot maps
  // here under the adopted table), and kTccAbort cleanup of pending
  // transactions prepared before the drain must not park forever.
}

sim::Task<void> TccPartition::parked() {
  counters_.handoff_parked.inc();
  const SimTime t0 = rpc_.now();
  sim::Promise<bool> p(rpc_.loop());
  parked_.push_back(p);
  co_await p.get_future();
  if (metrics_ != nullptr) {
    metrics_->histogram("routing.handoff_stall_us")
        .add(static_cast<double>(rpc_.now() - t0));
  }
}

void TccPartition::release_parked() {
  std::vector<sim::Promise<bool>> waiters = std::move(parked_);
  parked_.clear();
  for (auto& p : waiters) p.set_value(true);
}

void TccPartition::activate() {
  if (serving_) return;
  serving_ = true;
  if (oracle_ != nullptr) {
    if (acquiring_) {
      // A survivor of a contraction only inherited the drained slots; its
      // pre-owned keys may legitimately commit below the floor (pending
      // prepares assigned before the drain), so the floor is scoped to
      // exactly the keys that migrated in.
      oracle_->on_handoff(id_, handoff_floor_, acquired_keys_);
    } else {
      oracle_->on_handoff(id_, handoff_floor_);
    }
  }
  acquiring_ = false;
  acquired_keys_.clear();
  start();
  release_parked();
}

uint64_t TccPartition::physical_now_us() const {
  const int64_t t = rpc_.now() + params_.clock_offset_us;
  return t > 0 ? static_cast<uint64_t>(t) : 0;
}

Timestamp TccPartition::safe_time() {
  if (!pending_by_ts_.empty()) {
    return pending_by_ts_.begin()->first.prev();
  }
  // Advancing the clock guarantees every future prepare (and therefore
  // every future commit timestamp) exceeds the value we publish.
  return clock_.tick(physical_now_us());
}

TccReadResp::Entry TccPartition::read_one(Key key, Timestamp eff,
                                          Timestamp cached_ts) {
  TccReadResp::Entry e;
  e.key = key;
  const auto r = store_.read_at(key, eff);
  if (r.version == nullptr) {
    if (r.below_gc_horizon) {
      // The version the snapshot needs existed but has been collected.
      e.status = TccReadResp::Status::kMiss;
      counters_.misses.inc();
      return e;
    }
    // Key never written: serve the implicit initial version (empty value,
    // minimal timestamp).  Its promise follows the same rule as any other
    // version.
    e.ts = Timestamp::min();
  } else {
    e.ts = r.version->ts;
  }
  e.open = !r.next_ts.has_value();
  e.promise = r.next_ts.has_value()
                  ? r.next_ts->prev()
                  : std::max(e.ts, stabilizer_.stable_time());
  if (r.version != nullptr && cached_ts == e.ts) {
    e.status = TccReadResp::Status::kUnchanged;
    counters_.unchanged_responses.inc();
  } else {
    e.status = TccReadResp::Status::kValue;
    if (r.version != nullptr) e.value = r.version->value;
  }
  return e;
}

sim::Task<Buffer> TccPartition::on_read(Buffer req, net::Address) {
  // Valid only before the first co_await below.
  const obs::TraceContext inbound = rpc_.inbound_trace();
  if (!serving_) co_await parked();
  obs::SpanHandle span;
  if (tracer_ != nullptr) {
    span = tracer_->begin(inbound, "partition.read", "storage", rpc_.address(),
                          rpc_.now());
  }
  auto q = decode_message<TccReadReq>(req);
  rpc_.recycle(std::move(req));
  counters_.reads.inc();
  counters_.read_keys.inc(q.keys.size());
  co_await sim::sleep_for(
      rpc_.loop(), params_.request_cpu + params_.per_key_cpu *
                                             static_cast<Duration>(
                                                 q.keys.size()));
  TccReadResp resp;
  resp.stable_time = stabilizer_.stable_time();
  const Timestamp eff = std::min(q.snapshot, resp.stable_time);
  resp.entries.reserve(q.keys.size());
  size_t unchanged = 0;
  for (size_t i = 0; i < q.keys.size(); ++i) {
    if (!owns(q.keys[i])) {
      // The request matched our epoch when admitted, but the chain was
      // handed away while this handler slept.  No version data; the
      // client refreshes its table and re-routes.
      TccReadResp::Entry e;
      e.key = q.keys[i];
      e.status = TccReadResp::Status::kWrongOwner;
      counters_.wrong_owner_reads.inc();
      resp.entries.push_back(std::move(e));
      continue;
    }
    resp.entries.push_back(read_one(q.keys[i], eff, q.cached_ts[i]));
    if (resp.entries.back().status == TccReadResp::Status::kUnchanged) {
      ++unchanged;
    }
  }
  if (tracer_ != nullptr) {
    tracer_->annotate(span, "keys", static_cast<uint64_t>(q.keys.size()));
    tracer_->annotate(span, "unchanged", static_cast<uint64_t>(unchanged));
    tracer_->end(span, rpc_.now());
  }
  co_return rpc_.encode(resp);
}

bool TccPartition::si_check_and_lock(TxnId txn, Timestamp snapshot_ts,
                                     const std::vector<Key>& keys) {
  for (Key k : keys) {
    // First-committer-wins: a version installed after the transaction's
    // read snapshot, or a concurrent prepared writer, conflicts.
    const auto newest = store_.newest_ts(k);
    if (newest.has_value() && *newest > snapshot_ts) {
      counters_.si_conflicts.inc();
      return false;
    }
    if (auto it = write_locks_.find(k);
        it != write_locks_.end() && it->second != txn) {
      counters_.si_conflicts.inc();
      return false;
    }
  }
  auto& locked = locked_keys_[txn];
  for (Key k : keys) {
    write_locks_[k] = txn;
    locked.push_back(k);
  }
  return true;
}

void TccPartition::release_locks(TxnId txn) {
  auto it = locked_keys_.find(txn);
  if (it == locked_keys_.end()) return;
  for (Key k : it->second) {
    auto lock = write_locks_.find(k);
    if (lock != write_locks_.end() && lock->second == txn) {
      write_locks_.erase(lock);
    }
  }
  locked_keys_.erase(it);
}

void TccPartition::resolve_pending(TxnId txn) {
  auto it = pending_by_txn_.find(txn);
  if (it != pending_by_txn_.end()) {
    pending_by_ts_.erase(it->second.ts);
    pending_by_txn_.erase(it);
  }
}

void TccPartition::remember_resolved(TxnId txn, Timestamp ts) {
  auto [it, inserted] = resolved_.try_emplace(txn, ts);
  if (!inserted) {
    it->second = ts;
    return;
  }
  resolved_order_.push_back(txn);
  // FIFO eviction of the oldest entries only: a wholesale clear would also
  // forget *recent* transactions, and a commit retry landing just after
  // the clear would re-install its writes — on the fast path minting a
  // second version at a fresh timestamp.
  while (resolved_order_.size() > params_.resolved_cap) {
    resolved_.erase(resolved_order_.front());
    resolved_order_.pop_front();
  }
}

void TccPartition::expire_stale_prepares() {
  if (params_.prepare_ttl <= 0) return;
  const SimTime cutoff = rpc_.now() - params_.prepare_ttl;
  for (auto it = pending_by_txn_.begin(); it != pending_by_txn_.end();) {
    if (it->second.since <= cutoff) {
      // The coordinator is gone (crashed, or gave up after retry
      // exhaustion): stop pinning the safe time and release SI locks.
      counters_.prepares_expired.inc();
      pending_by_ts_.erase(it->second.ts);
      release_locks(it->first);
      remember_resolved(it->first, Timestamp::min());
      it = pending_by_txn_.erase(it);
    } else {
      ++it;
    }
  }
}

sim::Task<Buffer> TccPartition::on_prepare(Buffer req, net::Address) {
  auto q = decode_message<TccPrepareReq>(req);
  rpc_.recycle(std::move(req));
  if (!serving_) co_await parked();
  co_await sim::sleep_for(rpc_.loop(), params_.request_cpu);
  TccPrepareResp resp;
  // Ownership recheck after the sleep: chains named by the prepare may
  // have been handed away while this handler was parked or sleeping.
  for (Key k : q.write_keys) {
    if (owns(k)) continue;
    resp.ok = false;
    co_return rpc_.encode(resp);
  }
  // Duplicated delivery or timed-out retry of an outstanding prepare:
  // answer with the registered timestamp instead of pinning the safe time
  // a second time (the stray entry would never be resolved).
  if (auto it = pending_by_txn_.find(q.txn); it != pending_by_txn_.end()) {
    counters_.duplicate_prepares.inc();
    resp.ok = true;
    resp.prepare_ts = it->second.ts;
    co_return rpc_.encode(resp);
  }
  if (resolved_.count(q.txn) != 0) {
    // The transaction already committed or aborted here; a late duplicate
    // must not re-pin the safe time.  The coordinator has moved on, so the
    // refusal is never acted upon.
    counters_.duplicate_prepares.inc();
    resp.ok = false;
    co_return rpc_.encode(resp);
  }
  if (q.si_mode && !si_check_and_lock(q.txn, q.snapshot_ts, q.write_keys)) {
    resp.ok = false;
    co_return rpc_.encode(resp);
  }
  clock_.update(q.dep_ts, physical_now_us());
  const Timestamp prepare_ts = clock_.tick(physical_now_us());
  pending_by_ts_.emplace(prepare_ts, q.txn);
  pending_by_txn_.emplace(q.txn, PendingTxn{prepare_ts, rpc_.now()});
  resp.prepare_ts = prepare_ts;
  co_return rpc_.encode(resp);
}

sim::Task<Buffer> TccPartition::on_abort(Buffer req, net::Address) {
  auto q = decode_message<TccAbortReq>(req);
  rpc_.recycle(std::move(req));
  co_await sim::sleep_for(rpc_.loop(), params_.request_cpu);
  counters_.aborts.inc();
  release_locks(q.txn);
  resolve_pending(q.txn);
  remember_resolved(q.txn, Timestamp::min());
  co_return Buffer{};
}

void TccPartition::install_writes(const TccCommitReq& req) {
  for (const auto& kv : req.writes) {
    if (params_.chaos_drop_install) {
      // Chaos: ack without installing (oracle must flag lost-write).
      continue;
    }
    store_.install(kv.key, kv.value, req.commit_ts);
    if (oracle_ != nullptr) {
      oracle_->on_install(id_, kv.key, req.commit_ts, req.txn, kv.value);
    }
    if (params_.chaos_double_install) {
      // Chaos: mint a second version (oracle must flag duplicate-install).
      const Timestamp twin = req.commit_ts.next();
      store_.install(kv.key, kv.value, twin);
      if (oracle_ != nullptr) {
        oracle_->on_install(id_, kv.key, twin, req.txn, kv.value);
      }
    }
    if (subscribers_.contains(kv.key)) dirty_.insert(kv.key);
  }
  counters_.commits.inc();
}

sim::Task<Buffer> TccPartition::on_commit(Buffer req, net::Address) {
  auto q = decode_message<TccCommitReq>(req);
  rpc_.recycle(std::move(req));
  if (!serving_) co_await parked();
  co_await sim::sleep_for(
      rpc_.loop(), params_.request_cpu + params_.per_key_cpu *
                                             static_cast<Duration>(
                                                 q.writes.size()));
  if (auto rc = resolved_.find(q.txn); rc != resolved_.end()) {
    // Duplicated delivery or timed-out retry of a commit already applied
    // here (or of a transaction expired/aborted meanwhile).  Answer with
    // the recorded timestamp; re-installing would mint a second version on
    // the fast path.  A min() record means the txn was aborted or its
    // prepare expired *without* installing anything — acking such a retry
    // would report commit for writes this partition dropped, so it must be
    // refused (the coordinator then reports the abort to the client).
    counters_.duplicate_commits.inc();
    const bool ok =
        rc->second != Timestamp::min() || params_.chaos_ack_expired_commit;
    co_return rpc_.encode(TccCommitResp{
        ok, rc->second == Timestamp::min() ? q.commit_ts : rc->second});
  }
  // Ownership recheck after the sleep: the written chains may have been
  // handed to another partition while this commit was in flight.  Refuse
  // WITHOUT installing — the old owner no longer holds the chains and the
  // new owner's dedup table never saw this txn, so installing on either
  // side risks a duplicate version.  Release any prepared slot so the
  // safe time is not pinned by a commit that can never apply; the
  // coordinator surfaces the abort (the documented torn-abort class).
  for (const auto& kv : q.writes) {
    if (owns(kv.key)) continue;
    release_locks(q.txn);
    resolve_pending(q.txn);
    remember_resolved(q.txn, Timestamp::min());
    co_return rpc_.encode(TccCommitResp{false, q.commit_ts});
  }
  if (q.commit_ts == Timestamp::min()) {
    // Single-partition fast path: no prepare round happened; the partition
    // assigns a commit timestamp above the transaction's causal past.
    if (params_.chaos_ignore_dep) {
      // Chaos: skip the causal clock update and assign a timestamp below
      // the transaction's reads (oracle must flag causal-order).
      q.commit_ts = Timestamp(0, ++chaos_ticks_ & 0xfff, id_);
    } else {
      clock_.update(q.dep_ts, physical_now_us());
      q.commit_ts = clock_.tick(physical_now_us());
    }
  } else {
    clock_.update(q.commit_ts, physical_now_us());
    release_locks(q.txn);
    resolve_pending(q.txn);
  }
  remember_resolved(q.txn, q.commit_ts);
  install_writes(q);
  if (repl_role_ == ReplRole::kLeader &&
      (!followers_.empty() || !followers_behind_.empty())) {
    // The ack below asserts durability at f+1 (us plus every caught-up
    // follower): withhold it until the replication fan-out settles.  A
    // follower whose stream the bounded retry could not keep flowing is
    // demoted to the behind set rather than blocking the commit forever.
    co_await replicate_commit(q.txn, q.commit_ts, std::move(q.writes));
  }
  // The assigned commit timestamp is returned so the fast path can report
  // it; the general path already knows it.
  co_return rpc_.encode(TccCommitResp{true, q.commit_ts});
}

bool TccPartition::ctl_stale(uint64_t seq, net::Address from) {
  // Sequenced control requests (subscribe/unsubscribe) from one subscriber
  // must apply in issue order: a duplicated or delayed retry of an older
  // request arriving after a newer one would resurrect a cancelled
  // subscription (or cancel a live one).  seq 0 = unsequenced, always apply.
  if (seq == 0) return false;
  auto& newest = ctl_seq_seen_[from];
  if (seq <= newest) return true;
  newest = seq;
  return false;
}

sim::Task<Buffer> TccPartition::on_subscribe(Buffer req, net::Address from) {
  auto q = decode_message<SubscribeReq>(req);
  rpc_.recycle(std::move(req));
  if (!serving_) co_await parked();
  co_await sim::sleep_for(rpc_.loop(), params_.request_cpu);
  if (ctl_stale(q.seq, from)) co_return Buffer{};
  for (Key k : q.keys) {
    // Keys handed away while this handler slept are skipped: the cache
    // re-subscribes at the new owner once it adopts the fresh table.
    if (!owns(k)) continue;
    add_subscriber(k, from);
    // Re-announce the key's latest version on the next push: a successor
    // may have been installed between the read that triggered this
    // subscription and now, and the subscriber must not treat its (stale)
    // entry as open past that successor.
    dirty_.insert(k);
  }
  co_return Buffer{};
}

void TccPartition::drop_subscriber(Key k, net::Address cache) {
  if (!subscribers_.remove(k, cache)) return;
  auto ref = subscriber_refs_.find(cache);
  if (ref != subscriber_refs_.end() && --ref->second == 0) {
    subscriber_refs_.erase(ref);
    subscriber_addresses_.erase(cache);
  }
}

sim::Task<Buffer> TccPartition::on_unsubscribe(Buffer req, net::Address from) {
  auto q = decode_message<SubscribeReq>(req);
  rpc_.recycle(std::move(req));
  if (!serving_) co_await parked();
  co_await sim::sleep_for(rpc_.loop(), params_.request_cpu);
  if (ctl_stale(q.seq, from)) co_return Buffer{};
  for (Key k : q.keys) drop_subscriber(k, from);
  co_return Buffer{};
}

namespace {

// Metric key per membership-drop reason.  The aggregate
// "stab.stale_drops" keeps counting alongside so existing consumers
// (summaries, sweep cells) stay intact.
const char* stab_drop_metric(Stabilizer::DropReason r) {
  switch (r) {
    case Stabilizer::DropReason::kUnknownMember:
      return "stab.drops.unknown_member";
    case Stabilizer::DropReason::kStaleReportTag:
      return "stab.drops.stale_report";
    case Stabilizer::DropReason::kForeignChild:
      return "stab.drops.foreign_child";
    case Stabilizer::DropReason::kStaleBroadcastTag:
      return "stab.drops.stale_broadcast";
  }
  return "stab.drops.unknown_member";
}

void count_stab_drop(Metrics* metrics, const Stabilizer& stab) {
  if (metrics == nullptr) return;
  metrics->counter("stab.stale_drops").inc();
  metrics->counter(stab_drop_metric(stab.last_drop_reason())).inc();
}

}  // namespace

void TccPartition::on_gossip(Buffer msg, net::Address) {
  auto g = decode_message<GossipMsg>(msg);
  rpc_.recycle(std::move(msg));
  ++gossip_in_since_round_;
  if (!stabilizer_.on_gossip(g.partition, g.safe_time)) {
    count_stab_drop(metrics_, stabilizer_);
  }
}

void TccPartition::on_safe_up(Buffer msg, net::Address) {
  auto m = decode_message<SafeUpMsg>(msg);
  rpc_.recycle(std::move(msg));
  ++gossip_in_since_round_;
  if (!stabilizer_.on_child_report(m.partition, m.membership,
                                   m.subtree_min)) {
    count_stab_drop(metrics_, stabilizer_);
  }
}

void TccPartition::on_stable_down(Buffer msg, net::Address) {
  auto m = decode_message<StableDownMsg>(msg);
  rpc_.recycle(std::move(msg));
  ++gossip_in_since_round_;
  if (!stabilizer_.on_stable_broadcast(m.membership, m.stable)) {
    count_stab_drop(metrics_, stabilizer_);
  }
}

sim::Task<void> TccPartition::gossip_loop() {
  const uint64_t gen = loop_gen_;
  for (;;) {
    co_await sim::sleep_for(rpc_.loop(), params_.gossip_period);
    if (retired_ || gen != loop_gen_) co_return;
    // A deposed leader (crashed, revived after its follower was promoted)
    // must keep its gossip stream quiet: the promoted follower publishes
    // this partition id's safe time now.  Always true without replication.
    if (!is_current_leader()) continue;
    // Piggyback prepare-TTL enforcement on the gossip beat: a pure state
    // scan (no events, no randomness), and a no-op whenever every pending
    // prepare is younger than the TTL — i.e. always, in fault-free runs.
    expire_stale_prepares();
    if (params_.stab_topology == StabTopology::kTree) {
      tree_gossip_round();
      continue;
    }
    GossipMsg g{id_, published_safe()};
    stabilizer_.on_gossip(id_, g.safe_time);
    uint64_t sent = 0;
    for (net::Address peer : all_partitions_) {
      if (peer == rpc_.address()) continue;
      rpc_.send(peer, kTccGossip, g);
      ++sent;
    }
    note_gossip_round(sent);
  }
}

// One beat of the aggregation tree (stabilization_topology=tree): refresh
// our own safe time, fold it with the freshest child reports, send the
// fold to the parent (the root merges it into the stable directly), and
// relay the current stable down to every child.  Relay is periodic-only —
// no forward-on-receive — so a round is exactly 2(P-1) messages
// cell-wide: one up and one down edge per parent/child pair.
void TccPartition::tree_gossip_round() {
  const Timestamp safe = published_safe();
  stabilizer_.on_gossip(id_, safe);
  const uint32_t membership = stabilizer_.membership_tag();
  const Timestamp fold = stabilizer_.fold_subtree_min(safe);
  uint64_t sent = 0;
  if (stabilizer_.is_root()) {
    stabilizer_.on_stable_broadcast(membership, fold);
  } else {
    const PartitionId parent = stabilizer_.parent();
    if (parent < all_partitions_.size()) {
      rpc_.send(all_partitions_[parent], kTccSafeUp,
                SafeUpMsg{id_, membership, fold});
      ++sent;
    }
  }
  const StableDownMsg down{membership, stabilizer_.stable_time()};
  for (size_t i = 0; i < stabilizer_.num_children(); ++i) {
    const PartitionId c = stabilizer_.child(i);
    // A child adopted from a membership tag may not have an address yet
    // (routing-table broadcast still in flight); it is reached next round.
    if (c < all_partitions_.size()) {
      rpc_.send(all_partitions_[c], kTccStableDown, down);
      ++sent;
    }
  }
  note_gossip_round(sent);
}

void TccPartition::note_gossip_round(uint64_t msgs_sent) {
  const uint64_t fan_in = gossip_in_since_round_;
  gossip_in_since_round_ = 0;
  if (metrics_ == nullptr) return;
  metrics_->counter("stab.gossip_rounds").inc();
  metrics_->counter("stab.gossip_msgs").inc(msgs_sent);
  metrics_->histogram("stab.fan_in").add(static_cast<double>(fan_in));
  const Timestamp stable = stabilizer_.stable_time();
  const uint64_t now_us = physical_now_us();
  const uint64_t stable_us =
      stable == Timestamp::min() ? 0 : stable.physical_us();
  metrics_->histogram("stab.stable_lag_us")
      .add(now_us > stable_us ? static_cast<double>(now_us - stable_us)
                              : 0.0);
}

sim::Task<void> TccPartition::push_loop() {
  const uint64_t gen = loop_gen_;
  for (;;) {
    co_await sim::sleep_for(rpc_.loop(), params_.push_period);
    if (retired_ || gen != loop_gen_) co_return;
    // A deposed leader's push channel is dead: the promoted follower owns
    // the per-partition sequence now, and a stale frame would only force
    // subscribers to close entries.  Always true without replication.
    if (!is_current_leader()) continue;
    const Timestamp stable = stabilizer_.stable_time();
    if (params_.push_coalescing) {
      push_round_coalesced(stable);
      continue;
    }
    // Group fresh versions per subscriber.
    std::unordered_map<net::Address, PushMsg> batches;
    for (Key k : dirty_) {
      const auto* subs = subscribers_.find(k);
      if (subs == nullptr) continue;
      const auto r = store_.read_at(k, Timestamp::max());
      if (r.version == nullptr) continue;
      VersionedValue vv;
      vv.key = k;
      vv.value = r.version->value;
      vv.ts = r.version->ts;
      vv.promise = std::max(vv.ts, stable);
      for (net::Address sub : *subs) {
        batches[sub].updates.push_back(vv);
      }
    }
    dirty_.clear();
    // Every subscriber gets a push each period, even an empty one: the
    // absence of a key in the batch is the promise-extension signal.
    for (net::Address sub : subscriber_addresses_) {
      auto& batch = batches[sub];  // creates empty batches as needed
      batch.partition = id_;
      // Channel sequence, starting at 1 and persisting across resubscribes:
      // a gap tells the subscriber a (possibly announcing) push was lost.
      batch.seq = ++push_seq_out_[sub];
      batch.stable_time = stable;
      counters_.pushes.inc();
      rpc_.send(sub, kTccPush, batch);
    }
  }
}

// push_coalescing=true: one maintenance round, framed as PushBatchMsg.
// Identical pub/sub semantics to the PushMsg path (same dirty-set drain,
// same per-subscriber channel sequence, empty frames still sent as the
// promise-extension heartbeat) but each update drops its 8-byte promise —
// the pushed promise is always max(ts, stable) and the receiver re-derives
// it from the header's stable time, losslessly.
void TccPartition::push_round_coalesced(Timestamp stable) {
  std::unordered_map<net::Address, PushBatchMsg> batches;
  for (Key k : dirty_) {
    const auto* subs = subscribers_.find(k);
    if (subs == nullptr) continue;
    const auto r = store_.read_at(k, Timestamp::max());
    if (r.version == nullptr) continue;
    PushUpdate u;
    u.key = k;
    u.value = r.version->value;
    u.ts = r.version->ts;
    for (net::Address sub : *subs) {
      batches[sub].updates.push_back(u);
    }
  }
  dirty_.clear();
  for (net::Address sub : subscriber_addresses_) {
    auto& batch = batches[sub];  // creates empty batches as needed
    batch.partition = id_;
    batch.seq = ++push_seq_out_[sub];
    batch.stable_time = stable;
    counters_.pushes.inc();
    rpc_.send(sub, kTccPushBatch, batch);
  }
}

sim::Task<Buffer> TccPartition::on_migrate_out(Buffer req, net::Address) {
  auto q = decode_message<TccMigrateOutReq>(req);
  rpc_.recycle(std::move(req));
  const auto cache_key = std::make_pair(q.table.epoch, q.target);
  if (auto it = migrate_out_cache_.find(cache_key);
      it != migrate_out_cache_.end()) {
    // Duplicated or retried migrate-out: the chains left the store on the
    // first attempt, so the only sound answer is a replay of the original
    // parcel.
    co_return rpc_.encode(it->second);
  }
  co_await sim::sleep_for(rpc_.loop(), params_.request_cpu);
  // Re-check after the sleep: a duplicated delivery may have raced this
  // handler to the extraction while both were sleeping.
  if (auto it = migrate_out_cache_.find(cache_key);
      it != migrate_out_cache_.end()) {
    co_return rpc_.encode(it->second);
  }
  TccMigrateOutResp resp;
  if (table_ != nullptr && q.table.epoch < table_->epoch) {
    // A coordinator retrying an epoch this partition has moved past
    // entirely: nothing sound to extract.
    resp.ok = false;
    co_return rpc_.encode(resp);
  }
  // Adopt the carried table first (self-contained even if the broadcast
  // was lost): from here on the epoch gate refuses old-epoch traffic and
  // owns() steers already-admitted, still-sleeping handlers away from the
  // migrated chains.
  set_routing(routing::make_table(q.table));
  const PartitionId target = q.target;
  auto moved = store_.extract_chains(
      [this, target](Key k) { return table_->partition_of(k) == target; });
  resp.chains.reserve(moved.size());
  for (auto& [key, versions] : moved) {
    // Drop pub/sub state for the moved keys: the caches re-home their
    // subscriptions at the new owner when they adopt the fresh table.
    dirty_.erase(key);
    if (const auto* subs = subscribers_.find(key); subs != nullptr) {
      const std::vector<net::Address> copy = *subs;
      for (net::Address c : copy) drop_subscriber(key, c);
    }
    MigratedChain chain;
    chain.key = key;
    chain.versions.reserve(versions.size());
    for (auto& v : versions) {
      chain.versions.push_back(MigratedVersion{std::move(v.value), v.ts});
    }
    resp.chains.push_back(std::move(chain));
  }
  counters_.keys_migrated_out.inc(resp.chains.size());
  resp.last_heard = stabilizer_.last_heard_all();
  // Taken LAST, after sealing and extraction: >= every promise this
  // partition ever issued for the migrated keys (promises are bounded by
  // the published safe time, which is monotone) and >= every migrated
  // version's timestamp (the clock advanced past each install).  The
  // target must never commit at or below it.
  resp.safe_time = safe_time();
  resp.ok = true;
  migrate_out_cache_.emplace(cache_key, resp);
  co_return rpc_.encode(resp);
}

sim::Task<Buffer> TccPartition::on_migrate_in(Buffer req, net::Address) {
  auto q = decode_message<TccMigrateInReq>(req);
  rpc_.recycle(std::move(req));
  co_await sim::sleep_for(rpc_.loop(), params_.request_cpu);
  TccMigrateInResp resp;
  if (q.epoch != join_epoch_) {
    resp.ok = false;
    co_return rpc_.encode(resp);
  }
  if (join_applied_.count(q.source) != 0) {
    // Duplicate parcel (retry of an acked apply): already installed.
    co_return rpc_.encode(resp);
  }
  join_applied_.insert(q.source);
  // Seed the clock above the source's sealed safe time and every migrated
  // version's timestamp: this partition must never mint a commit at or
  // below either (promise soundness + append-only chains).
  clock_.update(q.source_safe, physical_now_us());
  if (q.source_safe > handoff_floor_) handoff_floor_ = q.source_safe;
  // Merge the source's genuinely observed stabilization state; sentinels
  // (min = never seeded, max = unheard) carry no information.
  const size_t n = std::min(q.last_heard.size(), stabilizer_.num_partitions());
  for (size_t p = 0; p < n; ++p) {
    if (q.last_heard[p] == Timestamp::min()) continue;
    if (q.last_heard[p] == Timestamp::max()) continue;
    stabilizer_.on_gossip(static_cast<PartitionId>(p), q.last_heard[p]);
  }
  for (const auto& chain : q.chains) {
    if (acquiring_) acquired_keys_.push_back(chain.key);
    std::vector<MvStore::Version> versions;
    versions.reserve(chain.versions.size());
    for (const auto& v : chain.versions) {
      clock_.update(v.ts, physical_now_us());
      if (v.ts > handoff_floor_) handoff_floor_ = v.ts;
      versions.push_back(MvStore::Version{v.value, v.ts});
    }
    // No oracle->on_install here: the versions were recorded when the
    // source installed them; re-recording would false-flag duplicates.
    store_.migrate_in(chain.key, versions);
  }
  if (repl_role_ == ReplRole::kLeader && !q.chains.empty()) {
    // The inherited chains exist only at this leader — the replication
    // stream never carried them.  Re-sync every follower from the chain
    // head before it re-enters the seal quorum, or a failover after the
    // drain would lose writes the retired partition had acked durable.
    for (net::Address f : followers_) {
      if (std::find(followers_behind_.begin(), followers_behind_.end(), f) ==
          followers_behind_.end()) {
        followers_behind_.push_back(f);
      }
    }
    followers_.clear();
  }
  counters_.keys_migrated_in.inc(q.chains.size());
  if (metrics_ != nullptr) {
    metrics_->counter("routing.keys_migrated").inc(q.chains.size());
  }
  if (join_expected_ > 0 && join_applied_.size() >= join_expected_) {
    activate();
  }
  co_return rpc_.encode(resp);
}

// ---------------------------------------------------------------------------
// Per-slot replication (leader + k followers).
// ---------------------------------------------------------------------------

void TccPartition::set_followers(std::vector<net::Address> followers) {
  followers_ = std::move(followers);
  if (!followers_.empty()) repl_role_ = ReplRole::kLeader;
}

void TccPartition::make_follower(net::Address leader) {
  repl_role_ = ReplRole::kFollower;
  leader_addr_ = leader;
  // Not in the routing table, so clients never address us — but any stray
  // frame parks instead of serving from a store nobody sealed.
  serving_ = false;
}

void TccPartition::start_follower() {
  last_lease_beat_ = rpc_.now();
  sim::spawn(lease_loop());
}

Timestamp TccPartition::published_safe() {
  const Timestamp raw = safe_time();
  if (repl_role_ != ReplRole::kLeader) return raw;
  if (followers_.empty() && followers_behind_.empty()) return raw;
  // Seals piggyback the gossip beat (they double as lease renewals); the
  // published value trails the raw safe by a seal round-trip, which is
  // always sound — safe times are monotone, so a delayed safe is merely a
  // conservative one.
  if (!seal_inflight_) sim::spawn(seal_round(raw, repl_seq_));
  for (net::Address f : followers_behind_) {
    if (backfill_inflight_.insert(f).second) sim::spawn(backfill_one(f));
  }
  return sealed_pub_;
}

sim::Task<bool> TccPartition::repl_send_one(net::Address follower,
                                            TccReplInstallReq frame) {
  auto r = co_await rpc_.call_raw_sized_retry(follower, kTccReplInstall,
                                              rpc_.encode(frame),
                                              net::commit_retry_policy());
  const bool ok = r.ok();
  if (ok) rpc_.recycle(std::move(r.payload));
  co_return ok;
}

sim::Task<void> TccPartition::repl_send_quiet(net::Address follower,
                                              TccReplInstallReq frame) {
  co_await repl_send_one(follower, std::move(frame));
}

sim::Task<void> TccPartition::replicate_commit(TxnId txn, Timestamp commit_ts,
                                               std::vector<KeyValue> writes) {
  TccReplInstallReq frame;
  frame.txn = txn;
  frame.commit_ts = commit_ts;
  frame.seq = ++repl_seq_;
  frame.writes = std::move(writes);
  // Behind followers still get the frame best-effort (keeps the hole a
  // running backfill must close from growing), but never gate the ack.
  for (net::Address f : followers_behind_) {
    sim::spawn(repl_send_quiet(f, frame));
  }
  const std::vector<net::Address> targets = followers_;
  std::vector<sim::Task<bool>> calls;
  calls.reserve(targets.size());
  for (net::Address f : targets) calls.push_back(repl_send_one(f, frame));
  const std::vector<bool> acks =
      co_await sim::when_all(rpc_.loop(), std::move(calls));
  for (size_t i = 0; i < targets.size(); ++i) {
    if (acks[i]) continue;
    // Bounded retry exhausted: this follower's stream has a hole we will
    // not close by re-sending.  Demote it out of the seal quorum; a
    // backfill from the chain head re-syncs it on a later beat.
    auto it = std::find(followers_.begin(), followers_.end(), targets[i]);
    if (it != followers_.end()) followers_.erase(it);
    if (std::find(followers_behind_.begin(), followers_behind_.end(),
                  targets[i]) == followers_behind_.end()) {
      followers_behind_.push_back(targets[i]);
    }
  }
}

sim::Task<void> TccPartition::seal_round(Timestamp safe, uint64_t seq_high) {
  seal_inflight_ = true;
  // One attempt per beat: the next beat is the retry, and a follower that
  // momentarily trails (frames still in flight) simply withholds this
  // seal — it is NOT demoted; only stream-retry exhaustion demotes.
  const net::RetryPolicy once{1, milliseconds(1), milliseconds(1),
                              net::kUseDefaultTimeout};
  const std::vector<net::Address> targets = followers_;
  const TccReplSealReq req{safe, seq_high};
  std::vector<sim::Task<std::optional<TccReplSealResp>>> calls;
  calls.reserve(targets.size());
  for (net::Address f : targets) {
    calls.push_back(
        rpc_.call_with_retry<TccReplSealResp>(f, kTccReplSeal, req, once));
  }
  const auto resps = co_await sim::when_all(rpc_.loop(), std::move(calls));
  bool all_ok = !targets.empty();
  for (const auto& r : resps) {
    if (!r.has_value() || !r->ok) all_ok = false;
  }
  if (all_ok && safe > sealed_pub_) sealed_pub_ = safe;
  seal_inflight_ = false;
}

sim::Task<void> TccPartition::backfill_one(net::Address follower) {
  TccBackfillReq req;
  req.safe = safe_time();
  req.seq_high = repl_seq_;
  // Epoch fence: a parcel snapshotted before a contraction must not land
  // after it (it would resurrect chains the shrink drained away).  0 when
  // no table is installed — the receiver treats that as unfenced.
  req.epoch = table_ != nullptr ? table_->epoch : 0;
  req.resolved.reserve(resolved_order_.size());
  for (TxnId t : resolved_order_) {
    if (auto it = resolved_.find(t); it != resolved_.end()) {
      req.resolved.push_back(ResolvedTxn{t, it->second});
    }
  }
  const auto snap = store_.snapshot_chains();
  req.chains.reserve(snap.size());
  for (const auto& [key, versions] : snap) {
    MigratedChain c;
    c.key = key;
    c.versions.reserve(versions.size());
    for (const auto& v : versions) {
      c.versions.push_back(MigratedVersion{v.value, v.ts});
    }
    req.chains.push_back(std::move(c));
  }
  const uint64_t sent_seq_high = req.seq_high;
  const auto r = co_await rpc_.call_with_retry<TccBackfillResp>(
      follower, kTccBackfill, std::move(req), net::commit_retry_policy());
  backfill_inflight_.erase(follower);
  if (!r.has_value() || !r->ok) co_return;  // retried on a later beat
  if (repl_seq_ != sent_seq_high) {
    // Commits landed while the parcel was in flight; their frames went to
    // this follower only best-effort.  Stay behind and re-sync again — the
    // next parcel is a delta-sized copy of a mostly warm store.
    co_return;
  }
  auto it =
      std::find(followers_behind_.begin(), followers_behind_.end(), follower);
  if (it != followers_behind_.end()) followers_behind_.erase(it);
  if (std::find(followers_.begin(), followers_.end(), follower) ==
      followers_.end()) {
    followers_.push_back(follower);
  }
}

void TccPartition::apply_repl_frame(const TccReplInstallReq& q) {
  clock_.update(q.commit_ts, physical_now_us());
  for (const auto& kv : q.writes) {
    // No oracle->on_install: the leader recorded these installs when it
    // applied them; re-recording would false-flag duplicates (the
    // migrate-in precedent).
    store_.install(kv.key, kv.value, q.commit_ts);
  }
  if (q.commit_ts > repl_floor_) repl_floor_ = q.commit_ts;
  // Mirror the leader's dedup window so a promoted follower answers
  // coordinator commit retries exactly as the dead leader would have.
  remember_resolved(q.txn, q.commit_ts);
  counters_.repl_installs.inc();
}

sim::Task<Buffer> TccPartition::on_repl_install(Buffer req, net::Address) {
  auto q = decode_message<TccReplInstallReq>(req);
  rpc_.recycle(std::move(req));
  co_await sim::sleep_for(rpc_.loop(), params_.request_cpu);
  TccReplInstallResp resp;
  // At-most-once apply: a duplicated or re-sent frame (network dup, or the
  // best-effort stream overlapping a backfill) is acked without touching
  // the store.  Install and resolve are idempotent anyway; the seq window
  // keeps the counters honest.
  if (q.seq <= repl_applied_seq_ || repl_sparse_.count(q.seq) != 0) {
    counters_.repl_dup_frames.inc();
    co_return rpc_.encode(resp);
  }
  apply_repl_frame(q);
  if (q.seq == repl_applied_seq_ + 1) {
    ++repl_applied_seq_;
    auto it = repl_sparse_.begin();
    while (it != repl_sparse_.end() && *it == repl_applied_seq_ + 1) {
      ++repl_applied_seq_;
      it = repl_sparse_.erase(it);
    }
  } else {
    repl_sparse_.insert(q.seq);
  }
  co_return rpc_.encode(resp);
}

sim::Task<Buffer> TccPartition::on_repl_seal(Buffer req, net::Address from) {
  auto q = decode_message<TccReplSealReq>(req);
  rpc_.recycle(std::move(req));
  co_await sim::sleep_for(rpc_.loop(), params_.request_cpu);
  last_lease_beat_ = rpc_.now();
  leader_addr_ = from;
  lag_grace_used_ = false;
  if (q.seq_high > leader_seq_high_) leader_seq_high_ = q.seq_high;
  TccReplSealResp resp;
  resp.applied_seq = repl_applied_seq_;
  resp.ok = repl_applied_seq_ >= q.seq_high;
  if (resp.ok && q.safe > sealed_safe_) {
    sealed_safe_ = q.safe;
    counters_.repl_seals.inc();
  }
  co_return rpc_.encode(resp);
}

sim::Task<Buffer> TccPartition::on_backfill(Buffer req, net::Address from) {
  auto q = decode_message<TccBackfillReq>(req);
  rpc_.recycle(std::move(req));
  co_await sim::sleep_for(rpc_.loop(), params_.request_cpu);
  if (q.epoch != 0 && table_ != nullptr && q.epoch < table_->epoch) {
    // Fenced: the sender snapshotted its store under an epoch this node has
    // moved past — across a contraction the parcel may hold chains that
    // were drained to a survivor, and applying it would resurrect them.
    TccBackfillResp stale;
    stale.ok = false;
    co_return rpc_.encode(stale);
  }
  last_lease_beat_ = rpc_.now();
  leader_addr_ = from;
  lag_grace_used_ = false;
  for (const auto& chain : q.chains) {
    std::vector<MvStore::Version> versions;
    versions.reserve(chain.versions.size());
    for (const auto& v : chain.versions) {
      clock_.update(v.ts, physical_now_us());
      if (v.ts > repl_floor_) repl_floor_ = v.ts;
      versions.push_back(MvStore::Version{v.value, v.ts});
    }
    // Idempotent per (key, ts): a duplicated backfill grows no twins.
    store_.migrate_in(chain.key, versions);
  }
  for (const auto& t : q.resolved) remember_resolved(t.txn, t.ts);
  if (q.seq_high > repl_applied_seq_) repl_applied_seq_ = q.seq_high;
  while (!repl_sparse_.empty() &&
         *repl_sparse_.begin() <= repl_applied_seq_) {
    repl_sparse_.erase(repl_sparse_.begin());
  }
  auto it = repl_sparse_.begin();
  while (it != repl_sparse_.end() && *it == repl_applied_seq_ + 1) {
    ++repl_applied_seq_;
    it = repl_sparse_.erase(it);
  }
  clock_.update(q.safe, physical_now_us());
  if (q.safe > sealed_safe_) sealed_safe_ = q.safe;
  counters_.repl_backfills.inc();
  TccBackfillResp resp;
  co_return rpc_.encode(resp);
}

sim::Task<void> TccPartition::lease_loop() {
  const uint64_t gen = loop_gen_;
  Duration beat = params_.repl_lease_timeout / 4;
  if (beat <= 0) beat = milliseconds(1);
  for (;;) {
    co_await sim::sleep_for(rpc_.loop(), beat);
    // A follower retired with its leader must stop bidding for promotion:
    // the topology service would refuse the bid anyway (the partition id
    // is beyond the shrunk table), but a retired bidder looping on refused
    // promotions is wasted traffic forever.
    if (retired_ || gen != loop_gen_) co_return;
    if (repl_role_ != ReplRole::kFollower) co_return;  // promoted
    if (rpc_.now() - last_lease_beat_ < params_.repl_lease_timeout) continue;
    if (topo_service_ == 0 || table_ == nullptr) continue;
    if (repl_applied_seq_ < leader_seq_high_ && !lag_grace_used_) {
      // We know we are missing frames.  Give an in-flight backfill — or a
      // caught-up sibling's bid — one grace period before bidding anyway
      // (a lagging promotion is still better than an abandoned slot).
      lag_grace_used_ = true;
      last_lease_beat_ = rpc_.now();
      continue;
    }
    const routing::TopoPromoteReq bid{
        id_, static_cast<routing::PartitionAddress>(rpc_.address()),
        table_->epoch};
    auto resp = co_await rpc_.call_raw_retry(topo_service_,
                                             routing::kTopoPromote,
                                             rpc_.encode(bid),
                                             net::routing_refresh_policy());
    if (resp.has_value()) {
      auto t = decode_message<routing::RoutingTable>(*resp);
      rpc_.recycle(std::move(*resp));
      set_routing(routing::make_table(std::move(t)));
    }
    if (repl_role_ != ReplRole::kFollower) co_return;  // we won
    // Lost the race (or the bid was stale): the adopted table names the
    // current leader; treat the decision itself as a lease renewal.
    if (table_ != nullptr && id_ < table_->partitions.size()) {
      leader_addr_ = table_->partitions[id_];
    }
    last_lease_beat_ = rpc_.now();
    lag_grace_used_ = false;
  }
}

void TccPartition::promote_self() {
  if (repl_role_ != ReplRole::kFollower) return;
  repl_role_ = ReplRole::kLeader;
  counters_.promotions.inc();
  // Handoff floor: the dead leader only ever published safe times it had
  // sealed here first, so every promise it issued is <= sealed_safe_ —
  // exactly the elastic scale-out argument with the seal standing in for
  // the migrate-out's explicit sealing step.
  if (sealed_safe_ > handoff_floor_) handoff_floor_ = sealed_safe_;
  // Never mint a commit at or below anything sealed or replicated here.
  clock_.update(std::max(sealed_safe_, repl_floor_), physical_now_us());
  // Conservative broadcaster/listener re-sync: every surviving sibling
  // re-syncs from our chain head before rejoining the seal quorum (we
  // cannot know which of the dead leader's frames they saw).
  followers_.clear();
  followers_behind_.clear();
  if (table_ != nullptr) {
    for (routing::PartitionAddress f : table_->replicas_of(id_)) {
      if (f != rpc_.address()) followers_behind_.push_back(f);
    }
  }
  // Sound: the dead leader never published past what EVERY caught-up
  // follower sealed, and we sealed everything we report here.
  sealed_pub_ = sealed_safe_;
  if (leader_seq_high_ > repl_seq_) repl_seq_ = leader_seq_high_;
  if (repl_applied_seq_ > repl_seq_) repl_seq_ = repl_applied_seq_;
  if (oracle_ != nullptr) {
    std::vector<std::pair<Key, Timestamp>> surviving;
    for (const auto& [key, chain] : store_.snapshot_chains()) {
      for (const auto& v : chain) surviving.emplace_back(key, v.ts);
    }
    oracle_->on_failover(id_, surviving);
  }
  if (metrics_ != nullptr) metrics_->counter("repl.promotions").inc();
  activate();
}

sim::Task<void> TccPartition::gc_loop() {
  const uint64_t gen = loop_gen_;
  for (;;) {
    co_await sim::sleep_for(rpc_.loop(), params_.gc_period);
    if (retired_ || gen != loop_gen_) co_return;
    const Timestamp stable = stabilizer_.stable_time();
    const uint64_t window_us =
        static_cast<uint64_t>(params_.gc_window);
    if (stable.physical_us() <= window_us) continue;
    const Timestamp horizon(stable.physical_us() - window_us, 0, 0);
    counters_.versions_gced.inc(store_.gc_before(horizon));
  }
}

}  // namespace faastcc::storage
