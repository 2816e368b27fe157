#include "cache/plain_cache.h"

#include "sim/future.h"

namespace faastcc::cache {

PlainCache::PlainCache(net::Network& network, net::Address self,
                       storage::EvTopology topology, Rng rng,
                       PlainCacheParams params, Metrics* metrics,
                       obs::Tracer* tracer)
    : rpc_(network, self),
      storage_(rpc_, std::move(topology), rng, tracer),
      params_(params),
      metrics_(metrics),
      tracer_(tracer) {
  rpc_.handle(kPlainRead, [this](Buffer b, net::Address from) {
    return on_read(std::move(b), from);
  });
  rpc_.handle_oneway(storage::kEvPush, [this](Buffer b, net::Address from) {
    on_push(std::move(b), from);
  });
}

void PlainCache::on_push(Buffer msg, net::Address) {
  // Cloudburst caches receive periodic update streams from the KVS; the
  // newest pushed payload simply replaces the cached value (no versions,
  // no guarantees — eventual consistency).
  auto push = decode_message<storage::EvGossipMsg>(msg);
  rpc_.recycle(std::move(msg));
  for (storage::EvItem& item : push.items) {
    Value* v = entries_.find(item.key);
    if (v == nullptr) continue;
    bytes_ += item.payload.size();
    bytes_ -= v->size();
    *v = std::move(item.payload);
  }
}

void PlainCache::evict_to_capacity() {
  while (entries_.size() > params_.capacity) {
    const Key victim = *entries_.least_recent();
    bytes_ -= entries_.find(victim)->size() + 8;
    entries_.erase(victim);
  }
}

sim::Task<Buffer> PlainCache::on_read(Buffer req, net::Address) {
  // Valid only before the first co_await below.
  const obs::TraceContext inbound = rpc_.inbound_trace();
  obs::SpanHandle span;
  obs::TraceContext span_ctx;
  if (tracer_ != nullptr) {
    span = tracer_->begin(inbound, "cache.read", "cache", rpc_.address(),
                          rpc_.now());
    span_ctx = tracer_->context_of(span);
  }
  auto q = decode_message<PlainReadReq>(req);
  rpc_.recycle(std::move(req));
  if (metrics_ != nullptr) metrics_->cache_lookups.inc();
  co_await sim::sleep_for(rpc_.loop(), params_.lookup_cpu);

  PlainReadResp resp;
  resp.entries.resize(q.keys.size());
  std::vector<size_t> to_fetch;
  for (size_t i = 0; i < q.keys.size(); ++i) {
    const Key k = q.keys[i];
    const Value* v = entries_.find(k);
    if (v != nullptr && params_.capacity != 0) {
      resp.entries[i] = storage::KeyValue{k, *v};
      entries_.touch(k);
    } else {
      to_fetch.push_back(i);
    }
  }
  const auto end_span = [&](bool hit, bool abort) {
    if (tracer_ == nullptr) return;
    tracer_->annotate(span, "keys", static_cast<uint64_t>(q.keys.size()));
    tracer_->annotate(span, "hit", hit ? 1 : 0);
    if (abort) tracer_->annotate(span, "abort", 1);
    tracer_->end(span, rpc_.now());
  };

  if (to_fetch.empty()) {
    if (metrics_ != nullptr) metrics_->cache_hits.inc();
    end_span(true, false);
    co_return rpc_.encode(resp);
  }

  std::vector<Key> keys;
  keys.reserve(to_fetch.size());
  for (size_t idx : to_fetch) keys.push_back(q.keys[idx]);
  auto result = co_await storage_.get(keys, span_ctx);
  if (metrics_ != nullptr) {
    metrics_->storage_episodes.inc();
    metrics_->storage_rounds.add(1.0);
    metrics_->storage_read_bytes.add(
        static_cast<double>(result.response_bytes));
  }
  if (result.failed) {
    // Unreachable replica: don't cache the (possibly empty) results, let
    // the client abort and retry the transaction.
    resp.abort = true;
    end_span(false, true);
    co_return rpc_.encode(resp);
  }
  for (size_t j = 0; j < to_fetch.size(); ++j) {
    const size_t idx = to_fetch[j];
    const Key k = q.keys[idx];
    Value v;
    if (result.items[j].has_value()) v = result.items[j]->payload;
    resp.entries[idx] = storage::KeyValue{k, v};
    if (params_.capacity != 0) {
      auto [cur, inserted] = entries_.try_emplace(k, v);
      if (inserted) {
        bytes_ += v.size() + 8;
        sim::spawn(storage_.subscribe({k}));
      } else {
        bytes_ += v.size();
        bytes_ -= cur->size();
        *cur = v;
        entries_.touch(k);
      }
      evict_to_capacity();
    }
  }
  end_span(false, false);
  co_return rpc_.encode(resp);
}

}  // namespace faastcc::cache
