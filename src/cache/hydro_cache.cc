#include "cache/hydro_cache.h"

#include <algorithm>

#include "common/log.h"
#include "sim/future.h"

namespace faastcc::cache {
namespace {

// Decodes a stored payload in place: the value is copied out, the
// dependency list parsed straight from the payload bytes.
HydroStored decode_stored(const Value& payload) {
  BufReader r(reinterpret_cast<const uint8_t*>(payload.data()),
              payload.size());
  return decode_from<HydroStored>(r);
}

}  // namespace

HydroCache::HydroCache(net::Network& network, net::Address self,
                       storage::EvTopology topology, Rng rng,
                       HydroCacheParams params, Metrics* metrics,
                       obs::Tracer* tracer)
    : rpc_(network, self),
      storage_(rpc_, std::move(topology), rng, tracer),
      params_(params),
      metrics_(metrics),
      tracer_(tracer) {
  rpc_.handle(kHydroRead, [this](Buffer b, net::Address from) {
    return on_read(std::move(b), from);
  });
  rpc_.handle_oneway(storage::kEvPush, [this](Buffer b, net::Address from) {
    on_push(std::move(b), from);
  });
}

void HydroCache::on_push(Buffer msg, net::Address) {
  auto push = decode_message<storage::EvGossipMsg>(msg);
  rpc_.recycle(std::move(msg));
  for (storage::EvItem& item : push.items) {
    Entry* e = entries_.find(item.key);
    if (e == nullptr) continue;  // evicted; unsubscribe in flight
    if (item.version.counter <= e->counter) continue;
    HydroStored stored = decode_stored(item.payload);
    bytes_ -= e->footprint();
    *e = Entry{std::move(stored.value), item.version.counter,
               item.written_at, std::move(stored.deps)};
    bytes_ += e->footprint();
    insert_stubs(e->deps);
  }
}

HydroCache::Fit HydroCache::check(const DepMap& ctx, Key key,
                                  uint64_t counter, const DepList& deps) {
  // One forward pass: the key-sorted list walks the context with a
  // Seeker, the candidate's own key probed at its place in that order.
  // The shipped context stays a wire image: only probed records are
  // parsed.  A too-old verdict outranks a conflict, so a conflict found
  // before the key is reached only returns once the key has passed.
  DepMap::Seeker seeker(ctx);
  bool key_checked = false;
  bool conflict = false;
  auto too_old = [&] {
    key_checked = true;
    // HydroCache only requires a version "equal or greater" than the one
    // in the dependency list (§2); newer is acceptable, and its own
    // dependencies are validated below.
    Dep need;
    return seeker.seek(key, need) && counter < need.counter;
  };
  for (const StoredDep d : deps) {
    if (!key_checked && key <= d.key) {
      if (too_old()) return Fit::kTooOld;
      if (conflict) return Fit::kConflict;
    }
    Dep have;
    if (seeker.seek(d.key, have) && have.read && have.counter < d.counter) {
      // This version causally requires a newer version of a key the
      // transaction has already read: it is "too new" and the LWW store
      // cannot serve anything older.
      if (key_checked) return Fit::kConflict;
      conflict = true;
    }
  }
  if (!key_checked && too_old()) return Fit::kTooOld;
  return conflict ? Fit::kConflict : Fit::kOk;
}

void HydroCache::prewarm(Key k, Value value, uint64_t counter,
                         SimTime written_at) {
  if (params_.capacity == 0 || entries_.size() >= params_.capacity) return;
  auto [e, inserted] = entries_.try_emplace(k, std::move(value), counter,
                                            written_at, DepList{});
  if (inserted) bytes_ += e->footprint();
}

void HydroCache::insert_entry(Key k, Entry e) {
  if (params_.capacity == 0) return;
  insert_stubs(e.deps);
  // A full entry supersedes a stub.
  if (stubs_.erase(k)) bytes_ -= kStubBytes;
  if (Entry* cur = entries_.find(k); cur == nullptr) {
    bytes_ += e.footprint();
    entries_.try_emplace(k, std::move(e));
    sim::spawn(storage_.subscribe({k}));
  } else {
    if (e.counter <= cur->counter) {
      entries_.touch(k);
      return;
    }
    bytes_ -= cur->footprint();
    bytes_ += e.footprint();
    *cur = std::move(e);
    entries_.touch(k);
  }
  evict_to_capacity();
}

void HydroCache::insert_stubs(const DepList& deps) {
  if (params_.capacity == 0) return;
  const size_t stub_cap =
      params_.capacity == SIZE_MAX ? SIZE_MAX : params_.capacity * 4;
  for (const StoredDep d : deps) {
    if (entries_.contains(d.key)) continue;
    auto [st, inserted] = stubs_.try_emplace(d.key, d.counter, d.written_at);
    if (inserted) {
      bytes_ += kStubBytes;
    } else {
      if (d.counter > st->counter) *st = Stub{d.counter, d.written_at};
      stubs_.touch(d.key);
    }
    while (stubs_.size() > stub_cap) {
      stubs_.erase(*stubs_.least_recent());
      bytes_ -= kStubBytes;
    }
  }
}

void HydroCache::evict_to_capacity() {
  std::vector<Key> evicted;
  while (entries_.size() > params_.capacity) {
    const Key victim = *entries_.least_recent();
    bytes_ -= entries_.find(victim)->footprint();
    entries_.erase(victim);
    evicted.push_back(victim);
  }
  if (!evicted.empty()) sim::spawn(storage_.unsubscribe(std::move(evicted)));
}

sim::Task<Buffer> HydroCache::on_read(Buffer req, net::Address) {
  // Valid only before the first co_await below.
  const obs::TraceContext inbound = rpc_.inbound_trace();
  obs::SpanHandle span;
  obs::TraceContext span_ctx;
  if (tracer_ != nullptr) {
    span = tracer_->begin(inbound, "cache.read", "cache", rpc_.address(),
                          rpc_.now());
    span_ctx = tracer_->context_of(span);
  }
  // Shared-ownership decode: q.context aliases the records inside the
  // request buffer instead of copying them out (the buffer lives as long
  // as the context view does, so it is surrendered rather than recycled).
  auto q = decode_message<HydroReadReq>(
      std::make_shared<const Buffer>(std::move(req)));
  if (metrics_ != nullptr) metrics_->cache_lookups.inc();
  co_await sim::sleep_for(rpc_.loop(), params_.lookup_cpu);

  HydroReadResp resp;
  resp.entries.resize(q.keys.size());
  resp.from_cache.assign(q.keys.size(), false);

  // The shipped context, updated in place: it keeps its raw wire image
  // (aliasing the request buffer, never parsed) and this request's own
  // reads and their dependencies land in its overlay, shadowing the
  // records they strengthen.  It is validated against, never shipped back.
  DepMap ctx = std::move(q.context);
  bool storage_contacted = false;
  double episode_rounds = 0;
  size_t episode_bytes = 0;

  auto accept = [&](size_t i, Key k, const Value& value, uint64_t counter,
                    SimTime written_at, const DepList& deps) {
    HydroReadEntry& out = resp.entries[i];
    out.key = k;
    out.value = value;
    out.counter = counter;
    out.written_at = written_at;
    out.deps = deps;
    // Nothing validates against the context after the request's last key.
    if (i + 1 < q.keys.size()) {
      ctx.mark_read(k, counter, written_at);
      ctx.require_all(deps);
    }
  };

  for (size_t i = 0; i < q.keys.size() && !resp.abort; ++i) {
    const Key k = q.keys[i];

    // Cache attempt.
    if (params_.capacity != 0) {
      const Entry* e = entries_.find(k);
      if (e != nullptr &&
          check(ctx, k, e->counter, e->deps) == Fit::kOk) {
        accept(i, k, e->value, e->counter, e->written_at, e->deps);
        resp.from_cache[i] = true;
        entries_.touch(k);
        continue;
      }
    }

    // Multi-round storage fetch.
    storage_contacted = true;
    bool done = false;
    for (int round = 0; round < params_.max_rounds; ++round) {
      std::vector<Key> fetch_keys(1, k);
      auto result = co_await storage_.get(std::move(fetch_keys), span_ctx);
      episode_rounds += 1;
      episode_bytes += result.response_bytes;
      if (result.failed) {
        // Replica unreachable through the retry budget; back off and let
        // the round loop decide (exhaustion aborts the transaction).
        co_await sim::sleep_for(rpc_.loop(), params_.retry_backoff);
        continue;
      }
      if (!result.items[0].has_value()) {
        // Key unknown to this replica.  If the transaction does not
        // require any particular version, serve the implicit initial
        // value; otherwise wait for replication.
        if (Dep need; !ctx.lookup(k, need) || need.counter == 0) {
          accept(i, k, Value{}, 0, 0, DepList{});
          done = true;
          break;
        }
        co_await sim::sleep_for(rpc_.loop(), params_.retry_backoff);
        continue;
      }
      const storage::EvItem& item = *result.items[0];
      HydroStored stored = decode_stored(item.payload);
      const Fit fit = check(ctx, k, item.version.counter, stored.deps);
      if (fit == Fit::kTooOld) {
        // Stale replica: retry (possibly another replica) after a short
        // backoff — the §4.1 multi-round pattern.
        co_await sim::sleep_for(rpc_.loop(), params_.retry_backoff);
        continue;
      }
      if (fit == Fit::kConflict) {
        if (metrics_ != nullptr) {
          metrics_->counter("hydro.conflict_aborts").inc();
        }
        resp.abort = true;
        break;
      }
      accept(i, k, stored.value, item.version.counter, item.written_at,
             stored.deps);
      insert_entry(k, Entry{stored.value, item.version.counter,
                            item.written_at, std::move(stored.deps)});
      done = true;
      break;
    }
    if (!done && !resp.abort) {
      if (Dep need; ctx.lookup(k, need)) {
        LOG_DEBUG("hydro round exhaustion key=" << k << " need=" << need.counter
                  << " read=" << need.read << " level=" << int(need.level));
      }
      resp.abort = true;
    }
  }

  resp.global_cut = storage_.global_cut();
  if (storage_contacted) {
    if (metrics_ != nullptr) {
      metrics_->storage_episodes.inc();
      metrics_->storage_rounds.add(episode_rounds);
      metrics_->storage_read_bytes.add(static_cast<double>(episode_bytes));
    }
  } else {
    if (metrics_ != nullptr) metrics_->cache_hits.inc();
  }
  if (tracer_ != nullptr) {
    tracer_->annotate(span, "keys", static_cast<uint64_t>(q.keys.size()));
    tracer_->annotate(span, "hit", storage_contacted ? 0 : 1);
    tracer_->annotate(span, "rounds", static_cast<uint64_t>(episode_rounds));
    tracer_->annotate(span, "storage_bytes",
                      static_cast<uint64_t>(episode_bytes));
    if (resp.abort) tracer_->annotate(span, "abort", 1);
    tracer_->end(span, rpc_.now());
  }
  co_return rpc_.encode(resp);
}

}  // namespace faastcc::cache
