#include "storage/storage_client.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "routing/topology_service.h"
#include "sim/when_all.h"

namespace faastcc::storage {
namespace {

struct PartitionBatch {
  net::Address address;
  std::vector<size_t> input_index;  // positions in the caller's key vector
};

template <typename KeyOf>
std::vector<PartitionBatch> group_by_partition(size_t n, KeyOf&& key_of) {
  std::unordered_map<net::Address, size_t> slot;
  std::vector<PartitionBatch> batches;
  for (size_t i = 0; i < n; ++i) {
    const net::Address a = key_of(i);
    auto [it, inserted] = slot.emplace(a, batches.size());
    if (inserted) batches.push_back(PartitionBatch{a, {}});
    batches[it->second].input_index.push_back(i);
  }
  return batches;
}

// Commit-phase retry budget: net::commit_retry_policy().  Once every
// participant has prepared the transaction is decided, so the coordinator
// tries much harder than for reads before giving up; the budget must stay
// well inside the partitions' prepare_ttl so a commit retry never races
// its own lease expiry.

// Epoch-aware typed call: decodes on success and reports a wrong-epoch
// NACK distinctly from a timeout, so commit paths know whether to refresh
// the routing table before giving up.
template <typename Resp>
struct CallOutcome {
  std::optional<Resp> resp;
  bool wrong_epoch = false;
};

template <typename Resp, typename Req>
sim::Task<CallOutcome<Resp>> call_epoch(net::RpcNode& rpc, net::Address to,
                                        net::MethodId method, Req req,
                                        net::RetryPolicy policy,
                                        obs::TraceContext ctx) {
  auto r = co_await rpc.call_raw_sized_retry(to, method, rpc.encode(req),
                                             policy, ctx);
  CallOutcome<Resp> out;
  out.wrong_epoch = r.status == net::RpcStatus::kWrongEpoch;
  if (!r.ok()) co_return out;
  out.resp = decode_message<Resp>(r.payload);
  rpc.recycle(std::move(r.payload));
  co_return out;
}

// Re-aims `pending` commit batches at the current table after a topology
// refresh.  Returns true only when every key kept its slot and every batch
// still shares a single address that actually changed — i.e. a leader
// promotion landed.  The promoted follower inherits the dead leader's
// resolved-txn table (replication frames and backfills both carry it), so
// a re-sent commit the leader applied dedups exactly as a retry at the old
// leader would.  It does not inherit pending prepares: a re-sent commit
// the leader never applied installs only above the follower's published
// safe time and is refused otherwise (TccPartition::on_commit).  A
// migration moves keys to a *different* slot whose owner has no such
// record; that case keeps the historical abort semantics.
bool reroute_batches(const TccTopology& topo,
                     const std::vector<KeyValue>& writes,
                     const std::vector<PartitionId>& slot_of,
                     std::vector<PartitionBatch>& pending) {
  for (auto& batch : pending) {
    net::Address next = 0;
    for (size_t idx : batch.input_index) {
      if (topo.partition_of(writes[idx].key) != slot_of[idx]) return false;
      const net::Address a = topo.address_of(writes[idx].key);
      if (next == 0) {
        next = a;
      } else if (a != next) {
        return false;
      }
    }
    if (next == batch.address) return false;  // no promotion landed yet
    batch.address = next;
  }
  return true;
}

sim::Task<void> abort_everywhere(net::RpcNode& rpc, TxnId txn,
                                 const std::vector<PartitionBatch>& batches) {
  // Best effort: a lost abort only delays the partition until its
  // prepare_ttl sweep reclaims the pending entry.
  std::vector<sim::Task<std::optional<Buffer>>> aborts;
  aborts.reserve(batches.size());
  for (const auto& batch : batches) {
    aborts.push_back(rpc.call_raw_retry(batch.address, kTccAbort,
                                        rpc.encode(TccAbortReq{txn})));
  }
  co_await sim::when_all(rpc.loop(), std::move(aborts));
}

}  // namespace

bool TccStorageClient::adopt_table(routing::TablePtr t) {
  if (t == nullptr ||
      (topology_.table != nullptr && t->epoch <= topology_.table->epoch)) {
    return false;
  }
  routing::TablePtr old = topology_.table;
  topology_ = TccTopology(std::move(t));
  rpc_.set_routing_epoch(topology_.table->epoch);
  if (table_change_cb_ && old != nullptr) {
    table_change_cb_(*old, *topology_.table);
  }
  return true;
}

sim::Task<bool> TccStorageClient::refresh_topology() {
  if (topo_service_ == 0) co_return false;
  // Collapse concurrent refreshes: whoever loses the race still sees the
  // adopted table through topology_ afterwards.
  if (refresh_inflight_) {
    co_await sim::sleep_for(rpc_.loop(), net::routing_refresh_policy()
                                             .initial_backoff);
    co_return topology_.table != nullptr;
  }
  refresh_inflight_ = true;
  auto raw = co_await rpc_.call_raw_retry(topo_service_, routing::kTopoGet,
                                          Buffer{},
                                          net::routing_refresh_policy());
  refresh_inflight_ = false;
  if (!raw.has_value()) co_return false;
  auto table = routing::make_table(
      decode_message<routing::RoutingTable>(*raw));
  rpc_.recycle(std::move(*raw));
  adopt_table(std::move(table));
  co_return true;
}

void TccStorageClient::note_wrong_epoch_retry() {
  if (metrics_ != nullptr) metrics_->counter("routing.wrong_epoch_retries").inc();
}

sim::Task<std::optional<TccReadResp>> TccStorageClient::read(
    std::vector<Key> keys, std::vector<Timestamp> cached_ts,
    Timestamp snapshot, ReadAccounting* accounting, obs::TraceContext trace) {
  assert(keys.size() == cached_ts.size());
  const net::RetryPolicy refresh = net::routing_refresh_policy();
  for (int attempt = 1;; ++attempt) {
    ReadOutcome o =
        co_await read_once(keys, cached_ts, snapshot, accounting, trace);
    if (!o.stale_routing) co_return std::move(o.resp);
    // Routed with a stale table (wrong-epoch NACK, or a partition that no
    // longer owns one of the keys): pull the current table and re-batch.
    // Never return wrong-owner entries to the caller.
    if (topo_service_ == 0 || attempt >= refresh.max_attempts) {
      co_return std::nullopt;
    }
    note_wrong_epoch_retry();
    co_await refresh_topology();
  }
}

sim::Task<TccStorageClient::ReadOutcome> TccStorageClient::read_once(
    const std::vector<Key>& keys, const std::vector<Timestamp>& cached_ts,
    Timestamp snapshot, ReadAccounting* accounting, obs::TraceContext trace) {
  auto batches = group_by_partition(
      keys.size(), [&](size_t i) { return topology_.address_of(keys[i]); });

  obs::SpanHandle span;
  obs::TraceContext ctx;
  if (tracer_ != nullptr) {
    span = tracer_->begin(trace, "storage.read", "storage", rpc_.address(),
                          rpc_.now());
    tracer_->annotate(span, "keys", static_cast<uint64_t>(keys.size()));
    tracer_->annotate(span, "partitions",
                      static_cast<uint64_t>(batches.size()));
    ctx = tracer_->context_of(span);
  }

  std::vector<sim::Task<net::RpcNode::SizedResponse>> calls;
  calls.reserve(batches.size());
  for (const auto& batch : batches) {
    TccReadReq req;
    req.snapshot = snapshot;
    for (size_t idx : batch.input_index) {
      req.keys.push_back(keys[idx]);
      req.cached_ts.push_back(cached_ts[idx]);
    }
    calls.push_back(rpc_.call_raw_sized_retry(batch.address, kTccRead,
                                              rpc_.encode(req), {}, ctx));
  }
  auto responses = co_await sim::when_all(rpc_.loop(), std::move(calls));

  uint64_t wire_bytes = 0;
  uint64_t retries = 0;
  for (const auto& r : responses) {
    wire_bytes += r.request_wire_bytes + r.response_wire_bytes;
    retries += r.attempts - 1;
  }
  const auto end_span = [&](bool failed) {
    if (tracer_ == nullptr) return;
    tracer_->annotate(span, "bytes_on_wire", wire_bytes);
    tracer_->annotate(span, "retries", retries);
    if (failed) tracer_->annotate(span, "failed", 1);
    tracer_->end(span, rpc_.now());
  };

  ReadOutcome out;
  TccReadResp merged;
  merged.entries.resize(keys.size());
  bool failed = false;
  for (size_t b = 0; b < batches.size(); ++b) {
    if (accounting != nullptr) {
      ++accounting->rpcs;
      accounting->request_bytes +=
          responses[b].request_wire_bytes - net::Message::kHeaderBytes;
      accounting->response_bytes += responses[b].payload.size();
    }
    if (!responses[b].ok()) {
      if (responses[b].status == net::RpcStatus::kWrongEpoch) {
        out.stale_routing = true;
      } else if (topology_.table != nullptr && topology_.table->replicated()) {
        // With replicated slots a timeout may mean the leader is dead — a
        // dead leader can never NACK, so the wrong-epoch signal the
        // elastic path relies on never comes.  Treat the timeout as a
        // routing signal: refresh and re-route at the promoted follower.
        // Unreplicated tables keep timeout-as-loss semantics (and their
        // exact schedules).
        out.stale_routing = true;
      }
      failed = true;
      continue;
    }
    auto resp = decode_message<TccReadResp>(responses[b].payload);
    rpc_.recycle(std::move(responses[b].payload));
    merged.stable_time = std::max(merged.stable_time, resp.stable_time);
    assert(resp.entries.size() == batches[b].input_index.size());
    for (size_t i = 0; i < resp.entries.size(); ++i) {
      // A wrong-owner entry means the partition served our epoch but had
      // already handed this key's chain away (a read that slept across the
      // handoff): the batch must be re-routed through a fresh table.
      if (resp.entries[i].status == TccReadResp::Status::kWrongOwner) {
        out.stale_routing = true;
        failed = true;
      }
      merged.entries[batches[b].input_index[i]] = std::move(resp.entries[i]);
    }
  }
  end_span(failed);
  if (!failed) out.resp = std::move(merged);
  co_return out;
}

sim::Task<std::optional<Timestamp>> TccStorageClient::commit(
    TxnId txn, std::vector<KeyValue> writes, Timestamp dep_ts,
    std::optional<Timestamp> si_snapshot, obs::TraceContext trace) {
  assert(!writes.empty());
  auto batches = group_by_partition(writes.size(), [&](size_t i) {
    return topology_.address_of(writes[i].key);
  });

  obs::SpanHandle span;
  obs::TraceContext ctx;
  if (tracer_ != nullptr) {
    span = tracer_->begin(trace, "storage.commit", "storage", rpc_.address(),
                          rpc_.now());
    tracer_->annotate(span, "writes", static_cast<uint64_t>(writes.size()));
    tracer_->annotate(span, "partitions",
                      static_cast<uint64_t>(batches.size()));
    if (si_snapshot.has_value()) tracer_->annotate(span, "si", 1);
    ctx = tracer_->context_of(span);
  }
  const auto end_span = [&](bool committed) {
    if (tracer_ == nullptr) return;
    tracer_->annotate(span, "committed", committed ? 1 : 0);
    tracer_->end(span, rpc_.now());
  };

  auto writes_for = [&](const PartitionBatch& batch) {
    std::vector<KeyValue> out;
    out.reserve(batch.input_index.size());
    for (size_t idx : batch.input_index) out.push_back(writes[idx]);
    return out;
  };

  const auto record_commit_phase = [&] {
    if (oracle_ == nullptr) return;
    std::vector<Key> write_keys;
    write_keys.reserve(writes.size());
    for (const auto& kv : writes) write_keys.push_back(kv.key);
    oracle_->on_commit_phase(txn, std::move(write_keys));
  };

  // Original slot of every write.  A promotion keeps a key's slot (only
  // the leader address changes); a migration does not — the distinction
  // decides whether a timed-out commit may be re-sent (see
  // reroute_batches).  Re-route rounds only exist for replicated tables:
  // a dead leader cannot NACK, so a timeout is the only failover signal.
  std::vector<PartitionId> slot_of(writes.size());
  for (size_t i = 0; i < writes.size(); ++i) {
    slot_of[i] = topology_.partition_of(writes[i].key);
  }
  const int reroutes =
      (topology_.table != nullptr && topology_.table->replicated())
          ? net::routing_refresh_policy().max_attempts
          : 0;

  if (batches.size() == 1 && !si_snapshot.has_value()) {
    // Fast path: the owning partition assigns the timestamp itself.  SI
    // commits always prepare, so conflicting prepares serialize even on a
    // single partition.
    TccCommitReq req;
    req.txn = txn;
    req.commit_ts = Timestamp::min();
    req.dep_ts = dep_ts;
    req.writes = writes_for(batches[0]);
    record_commit_phase();
    for (int round = 0;; ++round) {
      auto sized = co_await rpc_.call_raw_sized_retry(
          batches[0].address, kTccCommit, rpc_.encode(req),
          net::commit_retry_policy(), ctx);
      if (!sized.ok()) {
        if (sized.status == net::RpcStatus::kWrongEpoch) {
          // The key's owner changed under us.  A commit is never re-routed
          // at the new epoch: an earlier (timed-out) attempt may already
          // have installed at the old owner and migrated with the chain,
          // and the new owner has no resolved-txn record to dedup a re-send
          // against.  Refresh so the NEXT transaction routes correctly and
          // report abort; the client retries the DAG with a fresh txn id.
          note_wrong_epoch_retry();
          co_await refresh_topology();
        } else if (round < reroutes) {
          // Timeout against a replicated slot: the leader may be dead.
          // Pull the current table and re-send at the promoted follower —
          // same slot only (reroute_batches).
          co_await refresh_topology();
          if (reroute_batches(topology_, writes, slot_of, batches)) continue;
        }
        end_span(false);
        co_return std::nullopt;
      }
      const auto resp = decode_message<TccCommitResp>(sized.payload);
      if (!resp.ok) {
        // The partition refused the (retried) commit — the txn was aborted
        // or its prepare expired there and the writes were never installed.
        rpc_.recycle(std::move(sized.payload));
        end_span(false);
        co_return std::nullopt;
      }
      rpc_.recycle(std::move(sized.payload));
      if (oracle_ != nullptr) {
        oracle_->on_commit_ack(txn, resp.commit_ts, dep_ts);
      }
      end_span(true);
      co_return resp.commit_ts;
    }
  }

  // General path: prepare everywhere, then commit at max(prepare ts).  An
  // SI prepare also names the batch's keys for the partition's
  // first-committer-wins check against the snapshot.
  std::vector<sim::Task<CallOutcome<TccPrepareResp>>> prepares;
  prepares.reserve(batches.size());
  for (const auto& batch : batches) {
    TccPrepareReq req;
    req.txn = txn;
    req.dep_ts = dep_ts;
    if (si_snapshot.has_value()) {
      req.si_mode = true;
      req.snapshot_ts = *si_snapshot;
      for (size_t idx : batch.input_index) {
        req.write_keys.push_back(writes[idx].key);
      }
    }
    prepares.push_back(call_epoch<TccPrepareResp>(rpc_, batch.address,
                                                  kTccPrepare, req, {}, ctx));
  }
  auto prepare_resps = co_await sim::when_all(rpc_.loop(), std::move(prepares));
  bool failed = false;
  bool stale = false;
  Timestamp commit_ts = dep_ts.next();
  for (const auto& pr : prepare_resps) {
    // A prepare is refused (ok=false) on an SI write-write conflict, or
    // when the partition already expired this transaction's earlier
    // prepare and tombstoned it.  Either way, as with an unreachable
    // participant, the caller retries with a fresh transaction.
    if (!pr.resp.has_value() || !pr.resp->ok) failed = true;
    if (pr.wrong_epoch) stale = true;
    if (pr.resp.has_value()) {
      commit_ts = std::max(commit_ts, pr.resp->prepare_ts);
    }
  }
  if (failed) {
    // Like the fast path, a wrong-epoch prepare is an abort, not a
    // re-route (the refresh only serves the next transaction).  Aborts go
    // to the OLD owners — kTccAbort is deliberately not epoch-gated so the
    // cleanup reaches whoever holds the pending prepares (a refusing
    // participant treats its abort as a no-op).
    if (stale) {
      note_wrong_epoch_retry();
      co_await refresh_topology();
    }
    co_await abort_everywhere(rpc_, txn, batches);
    end_span(false);
    co_return std::nullopt;
  }

  record_commit_phase();
  std::vector<PartitionBatch> pending = batches;
  bool committed = true;
  for (int round = 0;; ++round) {
    std::vector<sim::Task<CallOutcome<TccCommitResp>>> commits;
    commits.reserve(pending.size());
    for (const auto& batch : pending) {
      TccCommitReq req;
      req.txn = txn;
      req.commit_ts = commit_ts;
      req.dep_ts = dep_ts;
      req.writes = writes_for(batch);
      commits.push_back(call_epoch<TccCommitResp>(rpc_, batch.address,
                                                  kTccCommit, req,
                                                  net::commit_retry_policy(),
                                                  ctx));
    }
    auto commit_resps =
        co_await sim::when_all(rpc_.loop(), std::move(commits));
    stale = false;
    bool refused = false;
    std::vector<PartitionBatch> timed_out;
    for (size_t b = 0; b < commit_resps.size(); ++b) {
      const auto& cr = commit_resps[b];
      if (cr.wrong_epoch) {
        stale = true;
      } else if (!cr.resp.has_value()) {
        timed_out.push_back(pending[b]);
      } else if (!cr.resp->ok) {
        // The participant refused a retried commit because it had already
        // expired/aborted the txn without installing anything.
        refused = true;
      }
    }
    if (stale) {
      note_wrong_epoch_retry();
      co_await refresh_topology();
    }
    if (stale || refused) {
      committed = false;
      break;
    }
    if (timed_out.empty()) break;
    // Exhausted even the commit budget at some participant (its prepare
    // lease will expire and abort its half).  With a replicated table a
    // timeout likely means a dead leader — refresh and re-send the
    // unacked batches at the promoted followers, same slots only.
    // Otherwise report abort; see docs/simulation.md "Fault model" for the
    // (vanishingly rare) torn outcome this trades for liveness.
    if (round >= reroutes) {
      committed = false;
      break;
    }
    co_await refresh_topology();
    if (!reroute_batches(topology_, writes, slot_of, timed_out)) {
      committed = false;
      break;
    }
    pending = std::move(timed_out);
  }
  if (!committed) {
    end_span(false);
    co_return std::nullopt;
  }
  if (oracle_ != nullptr) oracle_->on_commit_ack(txn, commit_ts, dep_ts);
  end_span(true);
  co_return commit_ts;
}

sim::Task<bool> TccStorageClient::subscribe_impl(std::vector<Key> keys,
                                                 TccMethod method,
                                                 uint64_t seq) {
  auto batches = group_by_partition(
      keys.size(), [&](size_t i) { return topology_.address_of(keys[i]); });
  std::vector<sim::Task<net::RpcNode::SizedResponse>> calls;
  calls.reserve(batches.size());
  for (const auto& batch : batches) {
    SubscribeReq req;
    for (size_t idx : batch.input_index) req.keys.push_back(keys[idx]);
    req.seq = seq;
    calls.push_back(
        rpc_.call_raw_sized_retry(batch.address, method, rpc_.encode(req)));
  }
  // Best effort for liveness: a missed (un)subscribe only costs push
  // efficiency.  But the caller must know — an unconfirmed subscription
  // delivers no pushes, so open-entry promises must not lean on it.
  auto responses = co_await sim::when_all(rpc_.loop(), std::move(calls));
  bool all_acked = true;
  bool stale = false;
  for (auto& r : responses) {
    if (!r.ok()) {
      all_acked = false;
      if (r.status == net::RpcStatus::kWrongEpoch) stale = true;
    } else {
      rpc_.recycle(std::move(r.payload));
    }
  }
  if (stale) {
    // An unacked subscription stays closed (sound); refreshing here lets
    // the cache's re-home pass route the follow-up subscribe correctly.
    note_wrong_epoch_retry();
    co_await refresh_topology();
  }
  co_return all_acked;
}

sim::Task<bool> TccStorageClient::subscribe(std::vector<Key> keys,
                                            uint64_t seq) {
  co_return co_await subscribe_impl(std::move(keys), kTccSubscribe, seq);
}

sim::Task<void> TccStorageClient::unsubscribe(std::vector<Key> keys,
                                              uint64_t seq) {
  co_await subscribe_impl(std::move(keys), kTccUnsubscribe, seq);
}

namespace {

sim::Task<void> ev_subscribe_impl(net::RpcNode& rpc, const EvTopology& topo,
                                  std::vector<Key> keys, EvMethod method) {
  std::unordered_map<net::Address, SubscribeReq> reqs;
  for (Key k : keys) {
    reqs[topo.replicas[topo.partition_of(k)][0]].keys.push_back(k);
  }
  std::vector<sim::Task<std::optional<Buffer>>> calls;
  calls.reserve(reqs.size());
  for (auto& [addr, req] : reqs) {
    calls.push_back(rpc.call_raw_retry(addr, method, rpc.encode(req)));
  }
  // Best effort, like the TCC side.
  co_await sim::when_all(rpc.loop(), std::move(calls));
}

}  // namespace

sim::Task<void> EvStorageClient::subscribe(std::vector<Key> keys) {
  co_await ev_subscribe_impl(rpc_, topology_, std::move(keys), kEvSubscribe);
}

sim::Task<void> EvStorageClient::unsubscribe(std::vector<Key> keys) {
  co_await ev_subscribe_impl(rpc_, topology_, std::move(keys), kEvUnsubscribe);
}

net::Address EvStorageClient::pick_replica(PartitionId p) {
  // Reads stick to one replica per (client, partition), as Anna clients
  // cache replica addresses.  A read that needs a version accepted at the
  // other replica therefore has to wait out the anti-entropy lag — the
  // multi-round pattern of §4.1.  Writes spread across replicas.
  const auto& reps = topology_.replicas[p];
  return reps[(static_cast<size_t>(rpc_.address()) + p) % reps.size()];
}

net::Address EvStorageClient::pick_write_replica(PartitionId p) {
  const auto& reps = topology_.replicas[p];
  return reps[rng_.next_below(reps.size())];
}

sim::Task<EvStorageClient::GetResult> EvStorageClient::get(
    std::vector<Key> keys, obs::TraceContext trace) {
  // Group by partition; replica choice is per request, so repeated calls
  // for the same key may hit different replicas (and different staleness).
  std::vector<net::Address> chosen(topology_.num_partitions(), 0);
  std::vector<bool> chosen_set(topology_.num_partitions(), false);
  auto address_for = [&](Key k) {
    const PartitionId p = topology_.partition_of(k);
    if (!chosen_set[p]) {
      chosen[p] = pick_replica(p);
      chosen_set[p] = true;
    }
    return chosen[p];
  };
  auto batches = group_by_partition(
      keys.size(), [&](size_t i) { return address_for(keys[i]); });

  obs::SpanHandle span;
  obs::TraceContext ctx;
  if (tracer_ != nullptr) {
    span = tracer_->begin(trace, "storage.get", "storage", rpc_.address(),
                          rpc_.now());
    tracer_->annotate(span, "keys", static_cast<uint64_t>(keys.size()));
    ctx = tracer_->context_of(span);
  }

  std::vector<sim::Task<net::RpcNode::SizedResponse>> calls;
  calls.reserve(batches.size());
  for (const auto& batch : batches) {
    EvGetReq req;
    for (size_t idx : batch.input_index) req.keys.push_back(keys[idx]);
    calls.push_back(rpc_.call_raw_sized_retry(batch.address, kEvGet,
                                              rpc_.encode(req), {}, ctx));
  }
  auto responses = co_await sim::when_all(rpc_.loop(), std::move(calls));

  GetResult out;
  out.items.resize(keys.size());
  for (size_t b = 0; b < batches.size(); ++b) {
    if (!responses[b].ok()) {
      out.failed = true;
      continue;
    }
    out.request_bytes +=
        responses[b].request_wire_bytes - net::Message::kHeaderBytes;
    out.response_bytes += responses[b].payload.size();
    auto resp = decode_message<EvGetResp>(responses[b].payload);
    rpc_.recycle(std::move(responses[b].payload));
    global_cut_ = std::max(global_cut_, resp.global_cut);
    // Found items arrive in request order but absent keys are omitted;
    // match them back by key.
    size_t f = 0;
    for (size_t i = 0; i < batches[b].input_index.size() && f < resp.found.size();
         ++i) {
      const size_t idx = batches[b].input_index[i];
      if (resp.found[f].key == keys[idx]) {
        out.items[idx] = std::move(resp.found[f]);
        ++f;
      }
    }
  }
  if (tracer_ != nullptr) {
    uint64_t wire_bytes = 0;
    uint64_t retries = 0;
    for (const auto& r : responses) {
      wire_bytes += r.request_wire_bytes + r.response_wire_bytes;
      retries += r.attempts - 1;
    }
    tracer_->annotate(span, "bytes_on_wire", wire_bytes);
    tracer_->annotate(span, "retries", retries);
    if (out.failed) tracer_->annotate(span, "failed", 1);
    tracer_->end(span, rpc_.now());
  }
  co_return out;
}

sim::Task<std::optional<std::vector<EvVersion>>> EvStorageClient::put(
    std::vector<EvItem> items, obs::TraceContext trace) {
  auto batches = group_by_partition(items.size(), [&](size_t i) {
    return pick_write_replica(topology_.partition_of(items[i].key));
  });
  obs::SpanHandle span;
  obs::TraceContext ctx;
  if (tracer_ != nullptr) {
    span = tracer_->begin(trace, "storage.put", "storage", rpc_.address(),
                          rpc_.now());
    tracer_->annotate(span, "items", static_cast<uint64_t>(items.size()));
    ctx = tracer_->context_of(span);
  }
  const auto end_span = [&](bool ok) {
    if (tracer_ == nullptr) return;
    if (!ok) tracer_->annotate(span, "failed", 1);
    tracer_->end(span, rpc_.now());
  };
  std::vector<sim::Task<std::optional<EvPutResp>>> calls;
  calls.reserve(batches.size());
  for (const auto& batch : batches) {
    EvPutReq req;
    for (size_t idx : batch.input_index) req.items.push_back(items[idx]);
    calls.push_back(rpc_.call_with_retry<EvPutResp>(batch.address, kEvPut, req,
                                                    net::commit_retry_policy(),
                                                    ctx));
  }
  auto responses = co_await sim::when_all(rpc_.loop(), std::move(calls));

  std::vector<EvVersion> versions(items.size());
  for (size_t b = 0; b < batches.size(); ++b) {
    if (!responses[b].has_value()) {
      end_span(false);
      co_return std::nullopt;
    }
    global_cut_ = std::max(global_cut_, responses[b]->global_cut);
    for (size_t i = 0; i < batches[b].input_index.size(); ++i) {
      versions[batches[b].input_index[i]] = responses[b]->versions[i];
    }
  }
  end_span(true);
  co_return versions;
}

}  // namespace faastcc::storage
