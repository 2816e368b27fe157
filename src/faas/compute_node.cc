#include "faas/compute_node.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"
#include "sim/future.h"

namespace faastcc::faas {

ComputeNode::ComputeNode(net::Network& network, net::Address self,
                         std::shared_ptr<FunctionRegistry> registry,
                         const AdapterFactory& adapter_factory,
                         ComputeNodeParams params, Metrics* metrics,
                         obs::Tracer* tracer)
    : rpc_(network, self),
      registry_(std::move(registry)),
      adapter_(adapter_factory(rpc_)),
      params_(params),
      metrics_(metrics),
      tracer_(tracer),
      ready_(network.loop()),
      executed_(params_.executed_dedup_cap),
      aborted_(params_.aborted_dedup_cap) {
  rpc_.handle_oneway(kTrigger, [this](Buffer b, net::Address from) {
    on_trigger(std::move(b), from);
  });
  rpc_.handle_oneway(kAbortNotice, [this](Buffer b, net::Address from) {
    on_abort_notice(std::move(b), from);
  });
}

void ComputeNode::start() {
  for (int i = 0; i < params_.executors; ++i) {
    sim::spawn(executor_loop());
  }
}

Duration ComputeNode::context_cost(size_t bytes) const {
  return static_cast<Duration>(static_cast<double>(bytes) / 1024.0 *
                               params_.context_cpu_us_per_kb);
}

void ComputeNode::gc_stale_joins() {
  // Opportunistic sweep, amortized over trigger arrivals.  In fault-free
  // runs sibling triggers arrive within a network delay of each other, so
  // nothing is ever old enough to collect.
  if (params_.join_gc_age <= 0 || joins_.size() < 64) return;
  const SimTime cutoff = rpc_.now() - params_.join_gc_age;
  for (auto it = joins_.begin(); it != joins_.end();) {
    if (it->second.created <= cutoff) {
      it = joins_.erase(it);
    } else {
      ++it;
    }
  }
}

void ComputeNode::on_trigger(Buffer msg, net::Address) {
  // Must be read before anything else: valid only for this delivery.
  const obs::TraceContext inbound = rpc_.inbound_trace();
  // Shared-ownership decode: the session/context payloads alias the wire
  // bytes in place, so the buffer is surrendered to the shared count (it
  // lives as long as any view does) instead of recycled.  Returning these
  // large payloads to the pool measures slower: they displace the small
  // hot buffers the pool exists to recycle.
  TriggerMsg t = decode_message<TriggerMsg>(
      std::make_shared<const Buffer>(std::move(msg)));
  counters_.triggers.inc();
  gc_stale_joins();
  if (aborted_.contains(t.txn_id)) {
    counters_.stale_triggers_dropped.inc();
    return;
  }
  const JoinKey key{t.txn_id, t.fn_index};
  if (executed_.contains(key)) {
    // A duplicated trigger for a function this node already ran (or
    // enqueued).  Executing it again would re-read at a different snapshot
    // and race the ghost's divergent writes against the real commit.
    counters_.stale_triggers_dropped.inc();
    return;
  }
  const uint32_t parents = t.spec.parents_of(t.fn_index);
  if (parents <= 1) {
    executed_.insert(key);
    Work w;
    std::vector<Payload> ctxs;
    if (parents == 1) ctxs.push_back(std::move(t.context));
    w.trigger = std::move(t);
    w.parent_contexts = std::move(ctxs);
    w.trace = inbound;
    w.enqueued = rpc_.now();
    ready_.push(std::move(w));
    return;
  }
  // Join: buffer until every parent has delivered its context.
  auto& state = joins_[key];
  if (!state.parents_seen.insert(t.from_fn).second) {
    // Duplicated trigger from a parent we already heard from.
    counters_.stale_triggers_dropped.inc();
    return;
  }
  state.contexts.push_back(std::move(t.context));
  if (state.contexts.size() == 1) {
    state.created = rpc_.now();
    state.first = std::move(t);
    state.trace = inbound;
  }
  if (state.contexts.size() < parents) return;
  counters_.joins_merged.inc();
  executed_.insert(key);
  Work w;
  w.trigger = std::move(state.first);
  w.parent_contexts = std::move(state.contexts);
  w.trace = state.trace;
  w.enqueued = rpc_.now();
  joins_.erase(key);
  ready_.push(std::move(w));
}

void ComputeNode::on_abort_notice(Buffer msg, net::Address) {
  const AbortNoticeMsg n = decode_message<AbortNoticeMsg>(msg);
  rpc_.recycle(std::move(msg));
  aborted_.insert(n.txn_id);
  // Drop any half-assembled joins of the aborted transaction.
  joins_.erase(joins_.lower_bound(JoinKey{n.txn_id, 0}),
               joins_.upper_bound(JoinKey{n.txn_id, UINT32_MAX}));
}

sim::Task<void> ComputeNode::executor_loop() {
  for (;;) {
    Work w = co_await ready_.pop();
    co_await execute(std::move(w));
  }
}

void ComputeNode::send_abort(const TriggerMsg& t) {
  counters_.aborts_raised.inc();
  aborted_.insert(t.txn_id);
  DagDoneMsg done;
  done.txn_id = t.txn_id;
  done.committed = false;
  rpc_.send(t.client, kDagDone, done);
  // Tell every downstream node to drop state for this transaction.
  std::unordered_set<net::Address> downstream;
  for (net::Address a : t.placement) {
    if (a != rpc_.address()) downstream.insert(a);
  }
  for (net::Address a : downstream) {
    rpc_.send(a, kAbortNotice, AbortNoticeMsg{t.txn_id});
  }
}

sim::Task<void> ComputeNode::execute(Work work) {
  const TriggerMsg& t = work.trigger;
  if (aborted_.contains(t.txn_id)) {
    counters_.stale_triggers_dropped.inc();
    co_return;
  }

  obs::SpanHandle span;
  obs::TraceContext ctx;  // this function execution's own context
  if (tracer_ != nullptr) {
    span = tracer_->begin(work.trace, "fn", "compute", rpc_.address(),
                          rpc_.now());
    tracer_->annotate(span, "fn_index", t.fn_index);
    ctx = tracer_->context_of(span);
    // Time between trigger arrival and an executor picking the work up.
    tracer_->add_time(ctx.trace_id, obs::Bucket::kQueue,
                      rpc_.now() - work.enqueued);
  }
  const auto charge_compute = [this, &ctx](Duration d) {
    if (tracer_ != nullptr) {
      tracer_->add_time(ctx.trace_id, obs::Bucket::kCompute, d);
    }
  };
  const auto end_span = [this, &span](bool aborted) {
    if (tracer_ != nullptr) {
      if (aborted) tracer_->annotate(span, "aborted", 1);
      tracer_->end(span, rpc_.now());
    }
  };

  charge_compute(params_.dispatch_overhead);
  co_await sim::sleep_for(rpc_.loop(), params_.dispatch_overhead);

  // Deserializing and merging the inbound context(s) costs CPU time
  // proportional to their size.
  size_t inbound = 0;
  for (const Payload& c : work.parent_contexts) inbound += c.size();
  if (inbound > 0) {
    charge_compute(context_cost(inbound));
    co_await sim::sleep_for(rpc_.loop(), context_cost(inbound));
  }

  client::TxnInfo info;
  info.txn_id = t.txn_id;
  info.is_static = t.spec.is_static();
  if (info.is_static) {
    info.declared_read_set = t.spec.declared_read_set();
    info.declared_write_set = t.spec.declared_write_set();
  }
  info.trace = ctx;

  auto txn = adapter_->open(info, std::move(work.parent_contexts),
                            std::move(work.trigger.session));
  if (txn == nullptr) {
    send_abort(t);
    end_span(true);
    co_return;
  }

  const DagView::Function fn = t.spec.function(t.fn_index);
  const FunctionBody* body = registry_->find(fn.name);
  if (body == nullptr) {
    LOG_ERROR("unknown function '" << fn.name << "'");
    send_abort(t);
    end_span(true);
    co_return;
  }

  ExecEnv env{*txn, fn.args, t.parent_result, rpc_.loop(), false};
  charge_compute(params_.function_service_time);
  co_await sim::sleep_for(rpc_.loop(), params_.function_service_time);
  Buffer result;
  try {
    result = co_await (*body)(env);
  } catch (const client::TxnAbort&) {
    env.abort_requested = true;
  }
  counters_.functions_executed.inc();
  if (env.abort_requested) {
    send_abort(t);
    end_span(true);
    co_return;
  }

  if (fn.children.empty()) {
    // Sink: commit and report to the client.
    auto session = co_await txn->commit();
    DagDoneMsg done;
    done.txn_id = t.txn_id;
    if (session.has_value()) {
      done.committed = true;
      done.session = std::move(*session);
      done.result = std::move(result);
    } else {
      aborted_.insert(t.txn_id);
      counters_.aborts_raised.inc();
    }
    rpc_.send(t.client, kDagDone, done, ctx);
    end_span(!done.committed);
    co_return;
  }

  // Forward context + result to every child.
  Buffer context = txn->export_context();
  charge_compute(context_cost(context.size()));
  co_await sim::sleep_for(rpc_.loop(), context_cost(context.size()));
  const size_t md =
      metrics_ != nullptr || tracer_ != nullptr ? txn->metadata_bytes() : 0;
  if (metrics_ != nullptr) {
    for (size_t i = 0; i < fn.children.size(); ++i) {
      metrics_->metadata_bytes.add(static_cast<double>(md));
    }
  }
  if (tracer_ != nullptr) {
    tracer_->annotate(span, "context_bytes",
                      static_cast<uint64_t>(context.size()));
    tracer_->annotate(span, "metadata_bytes", static_cast<uint64_t>(md));
  }
  // One message, re-sent per child: send() encodes from a const ref, so the
  // (potentially large) spec/context/result fields are never copied per
  // fan-out edge — only the unavoidable wire encode remains.  The spec and
  // placement move over from the inbound trigger, which is done with them;
  // `fn` stays valid, since the moved view keeps the spec's bytes alive.
  TriggerMsg next;
  next.txn_id = t.txn_id;
  next.from_fn = t.fn_index;
  next.client = t.client;
  next.spec = std::move(work.trigger.spec);
  next.placement = std::move(work.trigger.placement);
  next.context = std::move(context);
  next.parent_result = std::move(result);
  for (uint32_t child : fn.children) {
    next.fn_index = child;
    rpc_.send(next.placement.at(child), kTrigger, next, ctx);
  }
  end_span(false);
}

}  // namespace faastcc::faas
