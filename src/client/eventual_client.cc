#include "client/eventual_client.h"

namespace faastcc::client {

EventualAdapter::EventualAdapter(net::RpcNode& rpc, net::Address cache_address,
                                 storage::EvTopology topology, Rng rng,
                                 Metrics* metrics, obs::Tracer* tracer)
    : rpc_(rpc),
      cache_address_(cache_address),
      storage_(rpc, std::move(topology), rng, tracer),
      metrics_(metrics),
      tracer_(tracer) {}

std::unique_ptr<FunctionTxn> EventualAdapter::open(
    const TxnInfo& info, std::vector<Payload> parent_contexts,
    Payload /*session*/) {
  EventualContext ctx;
  for (const Payload& b : parent_contexts) {
    EventualContext p = decode_message<EventualContext>(b);
    for (auto& [k, v] : p.write_set) ctx.write_set[k] = std::move(v);
  }
  return std::make_unique<EventualTxn>(*this, info, std::move(ctx));
}

sim::Task<std::optional<std::vector<Value>>> EventualTxn::read(
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

  cache::PlainReadReq req;
  req.keys.reserve(missing.size());
  for (size_t idx : missing) req.keys.push_back(keys[idx]);
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
  auto resp = co_await adapter_.rpc_.call<cache::PlainReadResp>(
      adapter_.cache_address_, cache::kPlainRead, req, span_ctx);
  if (tracer != nullptr) {
    tracer->annotate(span, "abort", resp.abort ? 1 : 0);
    tracer->add_time(span_ctx.trace_id, obs::Bucket::kStorage,
                     adapter_.rpc_.now() - t0);
    tracer->end(span, adapter_.rpc_.now());
  }
  if (resp.abort) co_return std::nullopt;
  for (size_t j = 0; j < missing.size(); ++j) {
    const size_t idx = missing[j];
    out[idx] = resp.entries[j].value;
    read_set_.emplace(keys[idx], resp.entries[j].value);
  }
  co_return out;
}

void EventualTxn::write(Key k, Value v) { ctx_.write_set[k] = std::move(v); }

Buffer EventualTxn::export_context() const { return encode_message(ctx_); }

sim::Task<std::optional<Buffer>> EventualTxn::commit() {
  if (!ctx_.write_set.empty()) {
    std::vector<storage::EvItem> items;
    items.reserve(ctx_.write_set.size());
    for (const auto& [k, v] : ctx_.write_set) {
      storage::EvItem item;
      item.key = k;
      item.version = storage::EvVersion{0, info_.txn_id};  // store assigns
      item.payload = v;
      items.push_back(std::move(item));
    }
    obs::Tracer* tracer = adapter_.tracer_;
    obs::SpanHandle span;
    obs::TraceContext span_ctx;
    const SimTime t0 = adapter_.rpc_.now();
    if (tracer != nullptr) {
      span = tracer->begin(info_.trace, "commit", "client_lib",
                           adapter_.rpc_.address(), t0);
      tracer->annotate(span, "writes", static_cast<uint64_t>(items.size()));
      span_ctx = tracer->context_of(span);
    }
    auto versions = co_await adapter_.storage_.put(std::move(items), span_ctx);
    if (tracer != nullptr) {
      tracer->annotate(span, "committed", versions.has_value() ? 1 : 0);
      tracer->add_time(span_ctx.trace_id, obs::Bucket::kStorage,
                       adapter_.rpc_.now() - t0);
      tracer->end(span, adapter_.rpc_.now());
    }
    if (!versions.has_value()) co_return std::nullopt;
  }
  co_return Buffer{};
}

}  // namespace faastcc::client
