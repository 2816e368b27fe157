#include "faas/scheduler.h"

#include <cassert>

#include "common/log.h"
#include "sim/future.h"

namespace faastcc::faas {

Scheduler::Scheduler(net::Network& network, net::Address self,
                     std::vector<net::Address> nodes, SchedulerParams params,
                     Rng rng, obs::Tracer* tracer)
    : rpc_(network, self),
      nodes_(std::move(nodes)),
      params_(params),
      rng_(rng),
      tracer_(tracer),
      started_(params_.start_dedup_cap) {
  assert(!nodes_.empty());
  rpc_.handle_oneway(kStartDag, [this](Buffer b, net::Address from) {
    on_start(std::move(b), from);
  });
}

void Scheduler::on_start(Buffer msg, net::Address) {
  // Shared-ownership decode (as ComputeNode::on_trigger): the session
  // aliases the wire bytes and rides on into the root trigger uncopied, so
  // the buffer goes to the shared count instead of back to the pool.
  StartDagMsg start = decode_message<StartDagMsg>(
      std::make_shared<const Buffer>(std::move(msg)));
  // A repeated txn id is a fabric-duplicated kStartDag (clients never
  // reuse ids across attempts).  Dispatching it again would launch a ghost
  // copy of the whole DAG with freshly chosen placements, so the per-node
  // (txn, fn) dedup on the compute nodes could not catch it: the ghost
  // root would reopen at SI_root and re-read at a different snapshot under
  // the same transaction id.
  if (started_.contains(start.txn_id)) {
    dup_starts_dropped_.inc();
    return;
  }
  started_.insert(start.txn_id);
  sim::spawn(dispatch(std::move(start), rpc_.inbound_trace()));
}

sim::Task<void> Scheduler::dispatch(StartDagMsg start,
                                    obs::TraceContext trace) {
  obs::SpanHandle span;
  if (tracer_ != nullptr) {
    span = tracer_->begin(trace, "schedule", "scheduler", rpc_.address(),
                          rpc_.now());
    // Time at the scheduler is queueing from the DAG's point of view.
    tracer_->add_time(trace.trace_id, obs::Bucket::kQueue,
                      params_.service_time);
  }
  co_await sim::sleep_for(rpc_.loop(), params_.service_time);
  // The one full parse of the DAG's spec: the nodes read it as a view.
  DagSpec spec = start.spec.spec();
  const bool normalized = spec.normalize_sinks();
  if (!spec.valid()) {
    LOG_ERROR("rejecting invalid DAG for txn " << start.txn_id);
    DagDoneMsg done;
    done.txn_id = start.txn_id;
    done.committed = false;
    rpc_.send(start.client, kDagDone, done);
    if (tracer_ != nullptr) tracer_->end(span, rpc_.now());
    co_return;
  }
  dags_started_.inc();

  TriggerMsg t;
  t.txn_id = start.txn_id;
  t.client = start.client;
  t.session = std::move(start.session);
  t.placement.reserve(spec.functions.size());
  for (size_t i = 0; i < spec.functions.size(); ++i) {
    t.placement.push_back(nodes_[rng_.next_below(nodes_.size())]);
  }
  t.fn_index = spec.root();
  // The client's bytes ride on unless the sync function was added.
  t.spec = normalized ? DagView(spec) : std::move(start.spec);
  obs::TraceContext out;
  if (tracer_ != nullptr) {
    tracer_->annotate(span, "functions",
                      static_cast<uint64_t>(spec.functions.size()));
    out = tracer_->context_of(span);
  }
  rpc_.send(t.placement[t.fn_index], kTrigger, t, out);
  if (tracer_ != nullptr) tracer_->end(span, rpc_.now());
}

}  // namespace faastcc::faas
