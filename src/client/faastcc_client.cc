#include "client/faastcc_client.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"

namespace faastcc::client {

namespace {
// Trace annotation: how tight the snapshot interval is at read time, in
// physical microseconds (0 for an already-empty interval).
uint64_t interval_width_us(const SnapshotInterval& si) {
  if (si.empty()) return 0;
  return static_cast<uint64_t>(si.high.physical_us() - si.low.physical_us());
}
}  // namespace

FaasTccContext FaasTccContext::decode(BufReader& r) {
  const uint8_t version = r.get_u8();
  if (version != kWireVersion && version != kWireVersionEpoch) {
    throw CodecError("FaasTccContext: unsupported wire version " +
                     std::to_string(version));
  }
  FaasTccContext c;
  if (version == kWireVersionEpoch) c.routing_epoch = r.get_u32();
  c.interval = decode_from<SnapshotInterval>(r);
  c.dep_ts = decode_from<Timestamp>(r);
  c.snapshot_fixed = r.get_bool();
  c.write_set = decode_from<std::map<Key, Value>>(r);
  return c;
}

Buffer encode_faastcc_session(Timestamp commit_ts) {
  BufWriter w;
  w.put_u64(commit_ts.raw());
  return w.take();
}

Timestamp decode_faastcc_session(const Buffer& b) {
  if (b.empty()) return Timestamp::min();
  BufReader r(b);
  return Timestamp(r.get_u64());
}

Timestamp decode_faastcc_session(const Payload& p) {
  if (p.empty()) return Timestamp::min();
  BufReader r(p.data(), p.size());
  return Timestamp(r.get_u64());
}

FaasTccAdapter::FaasTccAdapter(net::RpcNode& rpc, net::Address cache_address,
                               storage::TccTopology topology,
                               FaasTccConfig config, Metrics* metrics,
                               obs::Tracer* tracer,
                               check::HistorySink* oracle)
    : rpc_(rpc),
      cache_address_(cache_address),
      storage_(rpc, std::move(topology), tracer, oracle),
      config_(config),
      metrics_(metrics),
      tracer_(tracer),
      oracle_(oracle) {
  if (config_.topo_service != 0) {
    storage_.enable_routing_refresh(config_.topo_service, metrics_);
  }
}

std::unique_ptr<FunctionTxn> FaasTccAdapter::open(
    const TxnInfo& info, std::vector<Payload> parent_contexts,
    Payload session) {
  FaasTccContext ctx;
  if (parent_contexts.empty()) {
    // Root function: SI_root = [-inf, +inf] (§4.8); the session blob only
    // contributes the causal lower bound for the eventual commit.
    ctx.dep_ts = decode_faastcc_session(session);
  } else {
    std::vector<FaasTccContext> parents;
    parents.reserve(parent_contexts.size());
    for (const Payload& b : parent_contexts) {
      parents.push_back(decode_message<FaasTccContext>(b));
    }
    std::vector<SnapshotInterval> intervals;
    intervals.reserve(parents.size());
    for (auto& p : parents) intervals.push_back(p.interval);
    ctx.interval = SnapshotInterval::merge(intervals);
    if (ctx.interval.empty()) {
      // Parents read from incompatible snapshots (Alg. 1 line 11).
      return nullptr;
    }
    for (auto& p : parents) {
      ctx.dep_ts = std::max(ctx.dep_ts, p.dep_ts);
      ctx.snapshot_fixed = ctx.snapshot_fixed || p.snapshot_fixed;
      ctx.routing_epoch = std::max(ctx.routing_epoch, p.routing_epoch);
      for (auto& [k, v] : p.write_set) ctx.write_set[k] = std::move(v);
    }
  }
  return std::make_unique<FaasTccTxn>(*this, info, std::move(ctx));
}

sim::Task<std::optional<std::vector<Value>>> FaasTccTxn::read(
    std::vector<Key> keys) {
  std::vector<Value> out(keys.size());
  std::vector<size_t> missing;
  const bool local = !adapter_.config_.chaos_skip_local_reads;
  for (size_t i = 0; i < keys.size(); ++i) {
    const Key k = keys[i];
    if (auto it = ctx_.write_set.find(k);
        local && it != ctx_.write_set.end()) {
      out[i] = it->second;  // read-your-writes (Alg. 1 line 25)
    } else if (auto it2 = read_set_.find(k);
               local && it2 != read_set_.end()) {
      out[i] = it2->second;  // repeatable read (Alg. 1 line 27)
    } else {
      missing.push_back(i);
    }
  }
  if (missing.empty()) co_return out;

  cache::CacheReadReq req;
  req.interval = ctx_.interval;
  req.use_promises = adapter_.config_.use_promises;
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
    tracer->annotate(span, "interval_width_us", interval_width_us(ctx_.interval));
    span_ctx = tracer->context_of(span);
  }
  // Raw call so the responder's stamped routing epoch can be harvested:
  // the cache rides every read reply with its current epoch for free (a
  // frame-header field, zero wire bytes), and the sink uses the DAG-wide
  // max to refresh its commit client's table before the first commit
  // attempt instead of eating a guaranteed wrong-epoch NACK.
  auto sized = co_await adapter_.rpc_.call_raw_sized(
      adapter_.cache_address_, cache::kCacheRead, adapter_.rpc_.encode(req),
      net::kUseDefaultTimeout, span_ctx);
  if (!sized.ok()) co_return std::nullopt;  // colocated cache: never expected
  auto resp = decode_message<cache::CacheReadResp>(sized.payload);
  adapter_.rpc_.recycle(std::move(sized.payload));
  if (sized.peer_epoch > ctx_.routing_epoch) {
    ctx_.routing_epoch = sized.peer_epoch;
  }
  if (tracer != nullptr) {
    tracer->annotate(span, "abort", resp.abort ? 1 : 0);
    // Reads block the function on the cache/storage path; the whole wall
    // time is attributed to the storage bucket of the breakdown.
    tracer->add_time(span_ctx.trace_id, obs::Bucket::kStorage,
                     adapter_.rpc_.now() - t0);
    tracer->end(span, adapter_.rpc_.now());
  }
  if (resp.abort) co_return std::nullopt;

  ctx_.interval = resp.interval;
  if (!adapter_.config_.use_interval && !ctx_.snapshot_fixed) {
    // Fixed-snapshot ablation (§6.2): commit the rest of the DAG to one
    // snapshot.  With promises the horizon of the first reads is usable
    // (interval.high); without them only the version timestamps are
    // (interval.low).
    const Timestamp fix = adapter_.config_.use_promises ? ctx_.interval.high
                                                        : ctx_.interval.low;
    ctx_.interval = SnapshotInterval::fixed(fix);
    ctx_.snapshot_fixed = true;
  }
  for (size_t j = 0; j < missing.size(); ++j) {
    const size_t idx = missing[j];
    out[idx] = resp.entries[j].value;
    read_set_.emplace(keys[idx], resp.entries[j].value);
    if (adapter_.oracle_ != nullptr) {
      adapter_.oracle_->on_read(info_.txn_id, fn_id_, keys[idx],
                                resp.entries[j].ts, resp.entries[j].promise,
                                resp.entries[j].value);
    }
  }
  co_return out;
}

void FaasTccTxn::write(Key k, Value v) {
  if (adapter_.oracle_ != nullptr) {
    adapter_.oracle_->on_write(info_.txn_id, fn_id_, k, v);
  }
  ctx_.write_set[k] = std::move(v);
}

Buffer FaasTccTxn::export_context() const { return encode_message(ctx_); }

size_t FaasTccTxn::metadata_bytes() const {
  // The coordination metadata is the snapshot interval alone: two
  // timestamps (§6.4) — plus, once an epoch bump has been observed, the
  // 4-byte routing epoch the v2 context carries.
  return 16 + (ctx_.routing_epoch > 1 ? 4 : 0);
}

sim::Task<std::optional<Buffer>> FaasTccTxn::commit() {
  if (ctx_.write_set.empty()) {
    if (adapter_.oracle_ != nullptr) {
      adapter_.oracle_->on_txn_complete(info_.txn_id);
    }
    co_return encode_faastcc_session(ctx_.dep_ts);
  }
  std::vector<storage::KeyValue> writes;
  writes.reserve(ctx_.write_set.size());
  for (const auto& [k, v] : ctx_.write_set) {
    writes.push_back(storage::KeyValue{k, v});
  }
  // The commit timestamp must causally follow everything the transaction
  // read (interval.low is the max accepted version timestamp) and the
  // client's previous commit.
  Timestamp dep = ctx_.dep_ts;
  if (ctx_.interval.low > dep && ctx_.interval.low > Timestamp::min()) {
    dep = ctx_.interval.low;
  }
  // A function upstream in the DAG saw a newer routing epoch than our
  // commit client's table: refresh first so the prepare fan-out goes to
  // the right owners.  (No-op without a configured topology service.)
  if (ctx_.routing_epoch > adapter_.storage_.epoch()) {
    co_await adapter_.storage_.refresh_topology();
  }
  obs::Tracer* tracer = adapter_.tracer_;
  obs::SpanHandle span;
  obs::TraceContext span_ctx;
  const SimTime t0 = adapter_.rpc_.now();
  if (tracer != nullptr) {
    span = tracer->begin(info_.trace, "commit", "client_lib",
                         adapter_.rpc_.address(), t0);
    tracer->annotate(span, "writes", static_cast<uint64_t>(writes.size()));
    span_ctx = tracer->context_of(span);
  }
  // nullopt: an SI conflict, or a participant stayed unreachable; abort
  // and let the client retry the DAG with a fresh transaction.
  const std::optional<Timestamp> commit_ts =
      co_await adapter_.storage_.commit(
          info_.txn_id, std::move(writes), dep,
          adapter_.config_.snapshot_isolation
              ? std::optional<Timestamp>(ctx_.interval.high)
              : std::nullopt,
          span_ctx);
  if (tracer != nullptr) {
    tracer->annotate(span, "committed", commit_ts.has_value() ? 1 : 0);
    tracer->add_time(span_ctx.trace_id, obs::Bucket::kStorage,
                     adapter_.rpc_.now() - t0);
    tracer->end(span, adapter_.rpc_.now());
  }
  if (!commit_ts.has_value()) co_return std::nullopt;
  if (adapter_.oracle_ != nullptr) {
    adapter_.oracle_->on_txn_complete(info_.txn_id);
  }
  co_return encode_faastcc_session(*commit_ts);
}

}  // namespace faastcc::client
