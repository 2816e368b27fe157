#include "client/hydro_client.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace faastcc::client {

HydroContext HydroContext::decode(BufReader& r) {
  const uint8_t version = r.get_u8();
  if (version != kWireVersion) {
    throw CodecError("HydroContext: unsupported wire version " +
                     std::to_string(version));
  }
  HydroContext c;
  c.deps = cache::DepMap::decode(r);
  c.lamport = r.get_u64();
  c.global_cut = r.get_i64();
  c.write_set = decode_from<std::map<Key, Value>>(r);
  return c;
}

HydroSession HydroSession::decode(BufReader& r) {
  HydroSession s;
  s.lamport = r.get_u64();
  s.global_cut = r.get_i64();
  s.deps = cache::DepMap::decode(r);
  return s;
}

HydroAdapter::HydroAdapter(net::RpcNode& rpc, net::Address cache_address,
                           storage::EvTopology topology, Rng rng,
                           HydroConfig config, Metrics* metrics,
                           obs::Tracer* tracer)
    : rpc_(rpc),
      cache_address_(cache_address),
      storage_(rpc, std::move(topology), rng, tracer),
      config_(config),
      metrics_(metrics),
      tracer_(tracer) {}

std::unique_ptr<FunctionTxn> HydroAdapter::open(
    const TxnInfo& info, std::vector<Payload> parent_contexts,
    Payload session) {
  HydroContext ctx;
  if (parent_contexts.empty()) {
    if (!session.empty()) {
      // Shared-ownership decode: the dependency map aliases the records
      // inside the session blob instead of copying them out.
      HydroSession s = decode_message<HydroSession>(session);
      ctx.lamport = s.lamport;
      ctx.global_cut = s.global_cut;
      ctx.deps = std::move(s.deps);
    }
  } else {
    for (const Payload& b : parent_contexts) {
      HydroContext p = decode_message<HydroContext>(b);
      // Parallel branches that read *different* versions of the same key
      // cannot be reconciled: the values were already consumed.  Against an
      // empty accumulator the check is vacuous, so the first parent's map
      // is adopted by the merge below without a walk.
      if (!ctx.deps.empty()) {
        bool conflict = false;
        p.deps.for_each([&](Key k, const cache::Dep& d) {
          if (conflict || !d.read) return;
          cache::Dep mine;
          if (ctx.deps.lookup(k, mine) && mine.read &&
              mine.counter != d.counter) {
            conflict = true;
          }
        });
        if (conflict) return nullptr;
      }
      ctx.deps.merge(p.deps);
      ctx.lamport = std::max(ctx.lamport, p.lamport);
      ctx.global_cut = std::max(ctx.global_cut, p.global_cut);
      for (auto& [k, v] : p.write_set) ctx.write_set[k] = std::move(v);
    }
  }
  return std::make_unique<HydroTxn>(*this, info, std::move(ctx));
}

HydroTxn::HydroTxn(HydroAdapter& adapter, TxnInfo info, HydroContext context)
    : adapter_(adapter),
      info_(std::move(info)),
      ctx_(std::move(context)) {
  if (info_.is_static) {
    relevant_.insert(info_.declared_read_set.begin(),
                     info_.declared_read_set.end());
    relevant_.insert(info_.declared_write_set.begin(),
                     info_.declared_write_set.end());
  }
}

sim::Task<std::optional<std::vector<Value>>> HydroTxn::read(
    std::vector<Key> keys) {
  std::vector<Value> out(keys.size());
  std::vector<size_t> missing;
  for (size_t i = 0; i < keys.size(); ++i) {
    const Key k = keys[i];
    if (auto it = ctx_.write_set.find(k); it != ctx_.write_set.end()) {
      out[i] = it->second;
    } else if (auto it2 = read_set_.find(k); it2 != read_set_.end()) {
      out[i] = it2->second;
    } else {
      missing.push_back(i);
    }
  }
  if (missing.empty()) co_return out;

  cache::HydroReadReq req;
  req.keys.reserve(missing.size());
  for (size_t idx : missing) req.keys.push_back(keys[idx]);
  // Shares the image; the encode walks image and overlay without a fold.
  req.context = ctx_.deps;

  obs::Tracer* tracer = adapter_.tracer_;
  obs::SpanHandle span;
  obs::TraceContext span_ctx;
  const SimTime t0 = adapter_.rpc_.now();
  if (tracer != nullptr) {
    span = tracer->begin(info_.trace, "read", "client_lib",
                         adapter_.rpc_.address(), t0);
    tracer->annotate(span, "keys", static_cast<uint64_t>(missing.size()));
    span_ctx = tracer->context_of(span);
  }
  auto resp = co_await adapter_.rpc_.call<cache::HydroReadResp>(
      adapter_.cache_address_, cache::kHydroRead, std::move(req), span_ctx);
  if (tracer != nullptr) {
    tracer->annotate(span, "abort", resp.abort ? 1 : 0);
    tracer->add_time(span_ctx.trace_id, obs::Bucket::kStorage,
                     adapter_.rpc_.now() - t0);
    tracer->end(span, adapter_.rpc_.now());
  }
  if (resp.abort) co_return std::nullopt;

  ctx_.global_cut = std::max(ctx_.global_cut, resp.global_cut);
  export_memo_.reset();
  for (size_t j = 0; j < missing.size(); ++j) {
    const size_t idx = missing[j];
    const auto& e = resp.entries[j];
    out[idx] = e.value;
    read_set_.emplace(keys[idx], e.value);
    ctx_.deps.mark_read(e.key, e.counter, e.written_at);
    ctx_.deps.require_all(e.deps);
    ctx_.lamport = std::max(ctx_.lamport, e.counter);
    for (const auto& d : e.deps) {
      ctx_.lamport = std::max(ctx_.lamport, d.counter);
    }
  }
  co_return out;
}

void HydroTxn::write(Key k, Value v) { ctx_.write_set[k] = std::move(v); }

SimTime HydroTxn::gc_horizon() const {
  return std::min(ctx_.global_cut,
                  adapter_.rpc_.now() - adapter_.config_.dep_gc_window);
}

Buffer HydroTxn::export_context() const {
  // One pass: the shipped entries stream from the context (raw image and
  // overlay merged, never folded) straight into the encoding, with kept
  // raw runs copied in bulk — no pruned copy of the map is built.
  ExportMemo memo;
  memo.horizon = gc_horizon();
  memo.oldest_kept = std::numeric_limits<SimTime>::max();
  BufWriter w;
  w.reserve(encoded_size(ctx_));  // the unpruned size bounds the export
  ctx_.encode(w, [&](BufWriter& ww) {
    memo.entries = ctx_.deps.encode_if(ww, [&](Key k, const cache::Dep& d) {
      if (!shipped(k, d, memo.horizon)) return false;
      if (!d.read) memo.oldest_kept = std::min(memo.oldest_kept, d.written_at);
      return true;
    });
  });
  export_memo_ = memo;
  return w.take();
}

size_t HydroTxn::metadata_bytes() const {
  const SimTime horizon = gc_horizon();
  // The horizon only advances.  The last export's count still holds until
  // it passes the oldest non-read entry that export kept.
  if (export_memo_ && horizon >= export_memo_->horizon &&
      horizon <= export_memo_->oldest_kept) {
    return 4 + export_memo_->entries * cache::kDepWireBytes;
  }
  size_t n = 0;
  ctx_.deps.for_each([&](Key k, const cache::Dep& d) {
    if (shipped(k, d, horizon)) ++n;
  });
  return 4 + n * cache::kDepWireBytes;
}

// The session carries the context into the client's next transaction:
// everything becomes validation-only history (level 2, no read markers),
// pruned against the stable cut, and the client's own writes enter at
// level 1 — they are the nearest dependencies of whatever it does next.
Buffer encode_hydro_session(const HydroContext& ctx, uint64_t lamport,
                            SimTime horizon,
                            const std::vector<storage::EvVersion>& versions,
                            SimTime now) {
  assert(versions.empty() || versions.size() == ctx.write_set.size());
  HydroSession s;
  s.lamport = lamport;
  s.global_cut = ctx.global_cut;
  BufWriter w;
  w.reserve(encoded_size(s) +
            (ctx.deps.size() + versions.size()) * cache::kDepWireBytes);
  s.encode(w, [&](BufWriter& ww) {
    cache::DepMap::RecordWriter out(ww);
    auto own = ctx.write_set.begin();  // parallel to `versions`
    size_t i = 0;
    auto put_own = [&] {
      out.append(own->first, cache::Dep{versions[i].counter, now, false, 1});
      ++own;
      ++i;
    };
    ctx.deps.for_each([&](Key k, const cache::Dep& d) {
      while (i < versions.size() && own->first < k) put_own();
      const bool past = d.written_at >= horizon;
      if (i < versions.size() && own->first == k) {
        // A write over a past entry: require(k, version, now, 1) on it.
        const uint64_t c = versions[i].counter;
        if (!past || c > d.counter) {
          put_own();
          return;
        }
        out.append(k, cache::Dep{d.counter, d.written_at, false,
                                 static_cast<uint8_t>(c == d.counter ? 1 : 2)});
        ++own;
        ++i;
        return;
      }
      if (past) out.append(k, cache::Dep{d.counter, d.written_at, false, 2});
    });
    while (i < versions.size()) put_own();
    out.finish();
  });
  return w.take();
}

sim::Task<std::optional<Buffer>> HydroTxn::commit() {
  const SimTime horizon = gc_horizon();
  if (ctx_.write_set.empty()) {
    co_return encode_hydro_session(ctx_, ctx_.lamport, horizon, {}, 0);
  }

  // Build the stored dependency list, in key order: versions this
  // transaction read (level 0) and their direct dependencies (level 1).
  // Level-2 entries exist in the context for validation but are not
  // re-stored — this is what keeps stored metadata bounded.
  std::vector<cache::StoredDep> deps;
  ctx_.deps.for_each([&](Key k, const cache::Dep& d) {
    if (ctx_.write_set.count(k) != 0) return;  // superseded by our write
    if (d.read) {
      deps.push_back(cache::StoredDep{k, d.counter, d.written_at, 0});
    } else if (d.level <= 1) {
      deps.push_back(cache::StoredDep{k, d.counter, d.written_at, 1});
    }
  });
  if (deps.size() > adapter_.config_.stored_dep_cap) {
    // Keep the most constraining entries: level 0 first, then recency,
    // with the key as a total-order tiebreak so the kept subset is
    // canonical (independent of the context's iteration order).
    std::sort(deps.begin(), deps.end(),
              [](const cache::StoredDep& a, const cache::StoredDep& b) {
                if (a.level != b.level) return a.level < b.level;
                if (a.written_at != b.written_at) {
                  return a.written_at > b.written_at;
                }
                return a.key < b.key;
              });
    deps.resize(adapter_.config_.stored_dep_cap);
    std::sort(deps.begin(), deps.end(),
              [](const cache::StoredDep& a, const cache::StoredDep& b) {
                return a.key < b.key;
              });
  }

  const uint64_t counter = ctx_.lamport + 1;
  const SimTime now = adapter_.rpc_.now();

  // Co-written siblings: every key written by this transaction depends on
  // the others, which is how readers detect torn visibility.  Written-set
  // keys are never in `deps`, so each list is a merge of two disjoint
  // key-sorted runs.
  std::vector<cache::StoredDep> siblings;
  siblings.reserve(ctx_.write_set.size());
  for (const auto& [k, v] : ctx_.write_set) {
    siblings.push_back(cache::StoredDep{k, counter, now, 0});
  }

  std::vector<storage::EvItem> items;
  items.reserve(ctx_.write_set.size());
  for (const auto& [k, v] : ctx_.write_set) {
    cache::HydroStored stored;
    stored.value = v;
    std::vector<cache::StoredDep> list;
    list.reserve(deps.size() + siblings.size() - 1);
    auto d = deps.begin();
    for (const cache::StoredDep& s : siblings) {
      for (; d != deps.end() && d->key < s.key; ++d) list.push_back(*d);
      if (s.key != k) list.push_back(s);
    }
    list.insert(list.end(), d, deps.end());
    stored.deps = cache::DepList(std::move(list));
    storage::EvItem item;
    item.key = k;
    item.version = storage::EvVersion{counter, info_.txn_id};
    const Buffer payload = encode_message(stored);
    item.payload = Value(std::string_view(
        reinterpret_cast<const char*>(payload.data()), payload.size()));
    items.push_back(std::move(item));
  }
  obs::Tracer* tracer = adapter_.tracer_;
  obs::SpanHandle span;
  obs::TraceContext span_ctx;
  const SimTime t0 = adapter_.rpc_.now();
  if (tracer != nullptr) {
    span = tracer->begin(info_.trace, "commit", "client_lib",
                         adapter_.rpc_.address(), t0);
    tracer->annotate(span, "writes",
                     static_cast<uint64_t>(ctx_.write_set.size()));
    span_ctx = tracer->context_of(span);
  }
  auto versions = co_await adapter_.storage_.put(std::move(items), span_ctx);
  if (tracer != nullptr) {
    tracer->annotate(span, "committed", versions.has_value() ? 1 : 0);
    tracer->add_time(span_ctx.trace_id, obs::Bucket::kStorage,
                     adapter_.rpc_.now() - t0);
    tracer->end(span, adapter_.rpc_.now());
  }
  // Unreachable replica through the retry budget: abort the DAG.
  if (!versions.has_value()) co_return std::nullopt;

  uint64_t lamport = counter;
  for (const storage::EvVersion& v : *versions) {
    lamport = std::max(lamport, v.counter);
  }
  co_return encode_hydro_session(ctx_, lamport, horizon, *versions, now);
}

}  // namespace faastcc::client
