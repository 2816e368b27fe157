#include "cache/faastcc_cache.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"
#include "routing/topology_service.h"
#include "sim/future.h"

namespace faastcc::cache {

using storage::TccReadResp;
using storage::VersionedValue;

FaasTccCache::FaasTccCache(net::Network& network, net::Address self,
                           storage::TccTopology topology, CacheParams params,
                           Metrics* metrics, obs::Tracer* tracer)
    : rpc_(network, self),
      storage_(rpc_, std::move(topology), tracer),
      params_(params),
      metrics_(metrics),
      tracer_(tracer),
      stable_est_(Timestamp::min()),
      partition_stable_(storage_.topology().num_partitions(),
                        Timestamp::min()),
      push_seq_(storage_.topology().num_partitions(), 0) {
  rpc_.handle(kCacheRead, [this](Buffer b, net::Address from) {
    return on_read(std::move(b), from);
  });
  rpc_.handle_oneway(storage::kTccPush, [this](Buffer b, net::Address from) {
    on_push(std::move(b), from);
  });
  rpc_.handle_oneway(storage::kTccPushBatch,
                     [this](Buffer b, net::Address from) {
                       on_push_batch(std::move(b), from);
                     });
  if (params_.topo_service != 0) {
    // Elastic routing: wrong-epoch NACKs on storage reads pull a fresh
    // table; epoch-bump broadcasts push one.  Either path lands in
    // adopt_table, whose change callback re-homes the cache.
    storage_.enable_routing_refresh(params_.topo_service, metrics_);
    storage_.on_table_change([this](const routing::RoutingTable& o,
                                    const routing::RoutingTable& n) {
      rehome(o, n);
    });
    rpc_.handle_oneway(routing::kTopoUpdate, [this](Buffer b, net::Address) {
      auto t = decode_message<routing::RoutingTable>(b);
      rpc_.recycle(std::move(b));
      storage_.adopt_table(routing::make_table(std::move(t)));
    });
  }
}

const FaasTccCache::Entry* FaasTccCache::peek(Key k) const {
  return entries_.find(k);
}

void FaasTccCache::prewarm(const VersionedValue& vv, bool subscribed) {
  if (params_.capacity == 0 || entries_.size() >= params_.capacity) return;
  // Open only when the caller registered a subscription: without pushes
  // the cache would extend this entry's promise past successors it never
  // hears about (chaos_prewarm_open re-enables exactly that bug).
  const bool open = subscribed || params_.chaos_prewarm_open;
  if (!entries_.try_emplace(vv.key, vv.value, vv.ts, vv.promise, open,
                            subscribed, subscribed)
           .second) {
    return;
  }
  bytes_ += vv.value.size() + kEntryOverhead;
  stable_est_ = std::max(stable_est_, vv.promise);
}

Timestamp FaasTccCache::effective_promise(Key k, const Entry& e) const {
  if (!e.open) return e.promise;
  return std::max(e.promise,
                  partition_stable_[storage_.topology().partition_of(k)]);
}

void FaasTccCache::insert_or_update(const TccReadResp::Entry& entry) {
  // Note: eviction is deferred to the caller (evict_to_capacity() after
  // the whole batch) — evicting here could invalidate an entry that a
  // later "unchanged" response in the same batch still refers to.
  // Entries start closed even when the store served them open: the
  // subscription is only being requested now, so no push would announce a
  // successor yet.  The partition re-announces the key on subscribe and
  // the next push (or an unchanged refresh) reopens the entry.
  if (params_.capacity == 0) return;
  auto [e, inserted] =
      entries_.try_emplace(entry.key, entry.value, entry.ts, entry.promise);
  if (inserted) {
    bytes_ += entry.value.size() + kEntryOverhead;
    // Keep the entry fresh via the storage notification service.
    request_subscribe({entry.key});
    return;
  }
  if (entry.ts > e->ts) {
    bytes_ += entry.value.size();
    bytes_ -= e->value.size();
    e->value = entry.value;
    e->ts = entry.ts;
    e->promise = entry.promise;
    e->open = false;
  } else if (entry.ts == e->ts) {
    e->promise = std::max(e->promise, entry.promise);
  }
  // An older version never replaces a newer cached one (§4.6: the reply is
  // returned without updating the cache).
  entries_.touch(entry.key);
}

void FaasTccCache::evict_to_capacity() {
  std::vector<Key> evicted;
  while (entries_.size() > params_.capacity) {
    const Key victim = *entries_.least_recent();
    bytes_ -= entries_.find(victim)->value.size() + kEntryOverhead;
    entries_.erase(victim);
    evicted.push_back(victim);
    counters_.evictions.inc();
  }
  // The entries, and with them their subscription flags, are gone.
  if (!evicted.empty()) request_ctl(false, std::move(evicted));
}

void FaasTccCache::request_subscribe(std::vector<Key> keys) {
  for (Key k : keys) entries_.find(k)->sub_desired = true;
  request_ctl(true, std::move(keys));
}

void FaasTccCache::request_ctl(bool subscribe, std::vector<Key> keys) {
  ctl_queue_.push_back(CtlOp{subscribe, std::move(keys)});
  if (!ctl_busy_) sim::spawn(ctl_drain());
}

sim::Task<void> FaasTccCache::ctl_drain() {
  // One control op in flight at a time, in issue order with increasing
  // sequence numbers: partitions drop anything older than the newest seen,
  // so an (un)subscribe can never be overtaken by its own stale retry.
  if (ctl_busy_) co_return;
  ctl_busy_ = true;
  while (!ctl_queue_.empty()) {
    CtlOp op = std::move(ctl_queue_.front());
    ctl_queue_.pop_front();
    const uint64_t seq = ++ctl_seq_;
    if (op.subscribe) {
      const bool acked = co_await storage_.subscribe(op.keys, seq);
      if (acked) {
        for (Key k : op.keys) {
          // Still desired (no eviction raced in behind us)?
          Entry* e = entries_.find(k);
          if (e != nullptr && e->sub_desired) e->sub_active = true;
        }
      }
    } else {
      co_await storage_.unsubscribe(op.keys, seq);
    }
  }
  ctl_busy_ = false;
}

void FaasTccCache::handle_push_gap(PartitionId p) {
  ++gap_epoch_;
  counters_.push_gaps.inc();
  // The lost push may have carried the only announcement of a successor:
  // no open entry of this partition may keep extending its promise.
  std::vector<Key> resub;
  entries_.for_each([&](Key k, Entry& e) {
    if (storage_.topology().partition_of(k) != p) return;
    e.open = false;
    if (e.sub_desired) resub.push_back(k);
  });
  // Resubscribing makes the partition re-announce each key's latest
  // version on its next push, which reopens the entries that survived.
  if (!resub.empty()) {
    std::sort(resub.begin(), resub.end());
    request_subscribe(std::move(resub));
  }
}

void FaasTccCache::rehome(const routing::RoutingTable& old_table,
                          const routing::RoutingTable& new_table) {
  if (partition_stable_.size() < new_table.num_partitions()) {
    partition_stable_.resize(new_table.num_partitions(), Timestamp::min());
    push_seq_.resize(new_table.num_partitions(), 0);
  }
  // In-flight storage rounds that started under the old table must not
  // reopen entries from stale "open" flags.
  ++gap_epoch_;
  // A promotion keeps partition_of(k) but swaps the endpoint behind it;
  // the new leader has no subscriber state, so those keys re-home exactly
  // like migrated ones.  Resetting the push sequence lets the promoted
  // leader's fresh stream (seq 1) count as in-order instead of reading as
  // a permanent duplicate.
  for (PartitionId p = 0; p < old_table.num_partitions() &&
                          p < new_table.num_partitions();
       ++p) {
    if (old_table.partitions[p] != new_table.partitions[p] &&
        p < push_seq_.size()) {
      push_seq_[p] = 0;
    }
  }
  std::vector<Key> resub;
  size_t moved = 0;
  entries_.for_each([&](Key k, Entry& e) {
    const PartitionId op = old_table.partition_of(k);
    const PartitionId np = new_table.partition_of(k);
    if (op == np && old_table.partitions[np] == new_table.partitions[np]) {
      return;
    }
    // The old owner dropped our subscription together with the chain (or,
    // on a promotion, died with it).  The cached promise stays valid — it
    // was issued while the source still owned the chain, and the handoff
    // floor keeps the new owner above it — but without a live
    // subscription the entry must close.
    e.open = false;
    e.sub_active = false;
    ++moved;
    if (e.sub_desired) resub.push_back(k);
  });
  counters_.rehomed_keys.inc(moved);
  if (metrics_ != nullptr && moved > 0) {
    metrics_->counter("cache.rehomed_keys").inc(moved);
  }
  // Re-subscribing at the new owners makes them re-announce each key's
  // latest version on their next push, which reopens surviving entries.
  if (!resub.empty()) {
    std::sort(resub.begin(), resub.end());
    request_subscribe(std::move(resub));
  }
}

sim::Task<Buffer> FaasTccCache::on_read(Buffer req, net::Address) {
  // Handler bodies run synchronously up to the first co_await, so the
  // delivery's trace context is still valid here.
  const obs::TraceContext inbound = rpc_.inbound_trace();
  obs::SpanHandle span;
  obs::TraceContext span_ctx;
  if (tracer_ != nullptr) {
    span = tracer_->begin(inbound, "cache.read", "cache", rpc_.address(),
                          rpc_.now());
    span_ctx = tracer_->context_of(span);
  }
  auto q = decode_message<CacheReadReq>(req);
  rpc_.recycle(std::move(req));
  counters_.requests.inc();
  if (metrics_ != nullptr) metrics_->cache_lookups.inc();
  co_await sim::sleep_for(rpc_.loop(), params_.lookup_cpu);

  CacheReadResp resp;
  resp.interval = q.interval;
  resp.entries.resize(q.keys.size());
  resp.from_cache.assign(q.keys.size(), false);

  // Pass 1: serve from the cache, narrowing the interval sequentially so
  // accepted versions stay mutually consistent.
  std::vector<size_t> to_fetch;
  for (size_t i = 0; i < q.keys.size(); ++i) {
    const Key k = q.keys[i];
    if (const Entry* found = entries_.find(k); found != nullptr) {
      const Entry& e = *found;
      const Timestamp promise = effective_promise(k, e);
      // The no-promises ablation admits and narrows with the bare version
      // timestamp: narrowing with the full promise would leak promise
      // benefit (wider surviving intervals) into the baseline.
      const Timestamp admit_promise = q.use_promises ? promise : e.ts;
      if (params_.chaos_ignore_interval ||
          resp.interval.admits(e.ts, admit_promise)) {
        resp.entries[i] = VersionedValue{k, e.value, e.ts, promise};
        resp.from_cache[i] = true;
        if (!params_.chaos_ignore_interval) {
          resp.interval.narrow(e.ts, admit_promise);
        }
        entries_.touch(k);
        continue;
      }
    }
    to_fetch.push_back(i);
  }

  if (to_fetch.empty()) {
    counters_.served_from_cache.inc();
    if (metrics_ != nullptr) metrics_->cache_hits.inc();
    if (tracer_ != nullptr) {
      tracer_->annotate(span, "keys", static_cast<uint64_t>(q.keys.size()));
      tracer_->annotate(span, "hit", 1);
      tracer_->end(span, rpc_.now());
    }
    co_return rpc_.encode(resp);
  }

  // Pass 2: a batched storage round at the (narrowed) upper bound.  The
  // snapshot is clamped to the cache's stable-time estimate: each
  // partition's stable view is monotone, so any global stable value
  // observed in the past is safe at every partition now, up to the gossip
  // window.  Inside that window a fan-out across partitions can still
  // straddle two stable views and produce an empty interval; a short
  // bounded retry (the stable views catch up within one gossip period)
  // closes it.  In the steady state every episode takes exactly one round
  // (§6.5).
  counters_.storage_fetches.inc();
  if (metrics_ != nullptr) metrics_->storage_episodes.inc();

  size_t episode_bytes = 0;
  double rounds = 0;
  bool ok = false;
  for (int attempt = 0; attempt < kMaxFetchAttempts && !resp.abort; ++attempt) {
    Timestamp snapshot = resp.interval.high;
    if (stable_est_ > Timestamp::min() && stable_est_ < snapshot) {
      snapshot = std::max(stable_est_, resp.interval.low);
    }
    std::vector<Key> keys;
    std::vector<Timestamp> cached_ts;
    keys.reserve(to_fetch.size());
    cached_ts.reserve(to_fetch.size());
    for (size_t idx : to_fetch) {
      const Key k = q.keys[idx];
      const Entry* e = entries_.find(k);
      keys.push_back(k);
      cached_ts.push_back(e == nullptr ? Timestamp::min() : e->ts);
    }
    storage::TccStorageClient::ReadAccounting acct;
    // Open flags in a response generated before a push gap are stale (the
    // gap may hide a successor the store knew about when it answered).
    const uint64_t epoch_before = gap_epoch_;
    auto maybe_resp =
        co_await storage_.read(keys, cached_ts, snapshot, &acct, span_ctx);
    // Fig. 7 counts the bytes served by the storage layer per consistent
    // read; most FaaSTCC responses are bare promise refreshes.
    episode_bytes += acct.response_bytes;
    rounds += 1;
    if (!maybe_resp.has_value()) {
      // A partition stayed unreachable through the retry budget: abort the
      // transaction rather than stall the executor.
      resp.abort = true;
      break;
    }
    TccReadResp storage_resp = std::move(*maybe_resp);
    stable_est_ = std::max(stable_est_, storage_resp.stable_time);

    // Trial-merge: accept the batch only if it keeps the interval
    // non-empty and no version is missing.
    client::SnapshotInterval trial = resp.interval;
    bool missing = false;
    bool value_lost = false;
    for (size_t j = 0; j < to_fetch.size(); ++j) {
      const auto& entry = storage_resp.entries[j];
      if (entry.status == TccReadResp::Status::kMiss) {
        missing = true;
        break;
      }
      if (entry.status == TccReadResp::Status::kUnchanged) {
        const Entry* e = entries_.find(entry.key);
        if (e == nullptr || e->ts != entry.ts) {
          // Evicted or replaced while the request was in flight: the
          // "unchanged" answer no longer has a local value to attach.
          // Retry without advertising a cached version.
          value_lost = true;
          break;
        }
      }
      trial.narrow(entry.ts, entry.promise);
    }
    if (missing) {
      // The needed version has been garbage-collected (§4.2): abort.
      resp.abort = true;
      break;
    }
    if (value_lost) continue;
    if (trial.empty()) {
      co_await sim::sleep_for(rpc_.loop(), params_.retry_backoff);
      continue;
    }

    // Commit the batch.  Eviction runs only after every entry has been
    // applied: an insert must not evict a key that a later "unchanged"
    // response in this same batch refers to.
    resp.interval = trial;
    for (size_t j = 0; j < to_fetch.size(); ++j) {
      const size_t idx = to_fetch[j];
      auto& entry = storage_resp.entries[j];
      if (entry.status == TccReadResp::Status::kUnchanged) {
        Entry* e = entries_.find(entry.key);
        assert(e != nullptr);  // guaranteed by the trial merge
        e->promise = std::max(e->promise, entry.promise);
        // Reopen only when the subscription is confirmed live and no push
        // gap interleaved with this storage round: otherwise the "open"
        // flag may predate a successor whose announcement was lost.
        e->open = e->open || (entry.open && gap_epoch_ == epoch_before &&
                              e->sub_active);
        resp.entries[idx] =
            VersionedValue{entry.key, e->value, e->ts, e->promise};
        entries_.touch(entry.key);
      } else {
        resp.entries[idx] =
            VersionedValue{entry.key, entry.value, entry.ts, entry.promise};
        insert_or_update(entry);
      }
    }
    evict_to_capacity();
    ok = true;
    break;
  }
  if (!ok) resp.abort = true;
  if (metrics_ != nullptr) {
    metrics_->storage_rounds.add(rounds);
    metrics_->storage_read_bytes.add(static_cast<double>(episode_bytes));
  }
  if (tracer_ != nullptr) {
    tracer_->annotate(span, "keys", static_cast<uint64_t>(q.keys.size()));
    tracer_->annotate(span, "hit", 0);
    tracer_->annotate(span, "rounds", static_cast<uint64_t>(rounds));
    tracer_->annotate(span, "storage_bytes",
                      static_cast<uint64_t>(episode_bytes));
    if (resp.abort) tracer_->annotate(span, "abort", 1);
    tracer_->end(span, rpc_.now());
  }
  co_return rpc_.encode(resp);
}

void FaasTccCache::on_push(Buffer msg, net::Address) {
  auto push = decode_message<storage::PushMsg>(msg);
  rpc_.recycle(std::move(msg));
  apply_push(push.partition, push.seq, push.stable_time, push.updates);
}

void FaasTccCache::on_push_batch(Buffer msg, net::Address) {
  auto push = decode_message<storage::PushBatchMsg>(msg);
  rpc_.recycle(std::move(msg));
  // Re-derive each update's promise from the frame header: the pusher
  // always sets promise = max(ts, stable), so nothing is lost by not
  // carrying it per update.
  std::vector<storage::VersionedValue> updates;
  updates.reserve(push.updates.size());
  for (auto& u : push.updates) {
    storage::VersionedValue vv;
    vv.key = u.key;
    vv.value = std::move(u.value);
    vv.ts = u.ts;
    vv.promise = std::max(u.ts, push.stable_time);
    updates.push_back(std::move(vv));
  }
  apply_push(push.partition, push.seq, push.stable_time, updates);
}

void FaasTccCache::apply_push(PartitionId partition, uint64_t seq,
                              Timestamp stable,
                              const std::vector<storage::VersionedValue>&
                                  updates) {
  stable_est_ = std::max(stable_est_, stable);
  if (partition >= partition_stable_.size()) return;
  // Channel ordering: only an unbroken push sequence proves the dirty-set
  // signal is complete (no successor announcement was lost).  A duplicated
  // or reordered old push must not reopen anything; a gap closes the
  // partition's open entries until the re-announce arrives.
  bool in_order = true;
  if (seq != 0) {
    auto& last = push_seq_[partition];
    if (seq == last + 1) {
      last = seq;
    } else if (seq > last) {
      handle_push_gap(partition);
      last = seq;
    } else {
      in_order = false;  // duplicate or reordered: values usable, flags not
    }
  }
  if (in_order) {
    auto& slot = partition_stable_[partition];
    slot = std::max(slot, stable);
  }
  for (const auto& vv : updates) {
    Entry* e = entries_.find(vv.key);
    if (e == nullptr) {
      // Evicted since we subscribed; the unsubscribe is in flight.
      counters_.pushes_stale.inc();
      continue;
    }
    const bool may_open = in_order && e->sub_active;
    if (vv.ts > e->ts) {
      bytes_ += vv.value.size();
      bytes_ -= e->value.size();
      e->value = vv.value;
      e->ts = vv.ts;
      e->promise = vv.promise;
      e->open = may_open;
      counters_.pushes_applied.inc();
    } else if (vv.ts == e->ts) {
      e->promise = std::max(e->promise, vv.promise);
      if (may_open) e->open = true;
      counters_.pushes_applied.inc();
    } else {
      counters_.pushes_stale.inc();
    }
  }
}

}  // namespace faastcc::cache
