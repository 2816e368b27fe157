#include "workload/client_driver.h"

#include "client/faastcc_client.h"
#include "common/log.h"
#include "sim/future.h"

namespace faastcc::workload {

ClientDriver::ClientDriver(net::Network& network, net::Address self,
                           net::Address scheduler, WorkloadGen workload,
                           ClientParams params, Metrics* metrics,
                           obs::Tracer* tracer,
                           check::HistorySink* oracle)
    : rpc_(network, self),
      scheduler_(scheduler),
      workload_(std::move(workload)),
      params_(params),
      metrics_(metrics),
      tracer_(tracer),
      oracle_(oracle),
      next_txn_((params.client_id + 1) << 32) {
  rpc_.handle_oneway(faas::kDagDone, [this](Buffer b, net::Address from) {
    on_done(std::move(b), from);
  });
}

void ClientDriver::on_done(Buffer msg, net::Address) {
  // Shared-ownership decode: the session aliases the wire bytes and is
  // kept as the next StartDag's session without a copy.
  faas::DagDoneMsg done = decode_message<faas::DagDoneMsg>(
      std::make_shared<const Buffer>(std::move(msg)));
  auto it = pending_.find(done.txn_id);
  if (it == pending_.end()) {
    // Expected under faults: a duplicated completion, or the real one
    // arriving after the DAG watchdog already gave up on the attempt.
    LOG_DEBUG("client got completion for unknown txn " << done.txn_id);
    return;
  }
  auto promise = std::move(it->second);
  pending_.erase(it);
  promise.set_value(std::move(done));
}

void ClientDriver::record_breakdown(const obs::TraceBreakdown& b) {
  if (metrics_ == nullptr) return;
  metrics_->histogram("breakdown.queue_ms").add(to_millis(b.queue));
  metrics_->histogram("breakdown.compute_ms").add(to_millis(b.compute));
  metrics_->histogram("breakdown.storage_ms").add(to_millis(b.storage));
  metrics_->histogram("breakdown.network_ms").add(to_millis(b.network));
}

sim::Task<faas::DagDoneMsg> ClientDriver::execute_once(
    const faas::DagView& spec, int attempt) {
  const TxnId txn = next_txn_++;
  auto [it, inserted] =
      pending_.emplace(txn, sim::Promise<faas::DagDoneMsg>(rpc_.loop()));
  auto future = it->second.get_future();
  // Each attempt is its own trace: fresh transaction, fresh span tree.
  obs::SpanHandle root;
  if (tracer_ != nullptr) {
    tracer_->start_trace(txn, rpc_.now());
    root = tracer_->begin(obs::TraceContext{txn, 0}, "dag", "client",
                          rpc_.address(), rpc_.now());
    tracer_->annotate(root, "attempt", static_cast<uint64_t>(attempt));
  }
  faas::StartDagMsg start;
  start.txn_id = txn;
  start.client = rpc_.address();
  start.session = session_;
  start.spec = spec;
  rpc_.send(scheduler_, faas::kStartDag, start,
            tracer_ != nullptr ? tracer_->context_of(root)
                               : obs::TraceContext{});
  if (params_.dag_timeout > 0) {
    rpc_.loop().schedule_after(params_.dag_timeout, [this, txn] {
      auto it2 = pending_.find(txn);
      if (it2 == pending_.end()) return;  // already completed
      auto promise = std::move(it2->second);
      pending_.erase(it2);
      if (metrics_ != nullptr) metrics_->dag_timeouts.inc();
      faas::DagDoneMsg timed_out;
      timed_out.txn_id = txn;
      timed_out.committed = false;
      promise.set_value(std::move(timed_out));
    });
  }
  faas::DagDoneMsg done = co_await std::move(future);
  if (tracer_ != nullptr) {
    tracer_->annotate(root, "committed", done.committed ? 1 : 0);
    tracer_->end(root, rpc_.now());
    auto breakdown = tracer_->finish_trace(txn, rpc_.now());
    // Breakdown histograms follow the committed-latency population.
    if (breakdown.has_value() && done.committed) {
      record_breakdown(*breakdown);
    }
  }
  co_return done;
}

sim::Task<void> ClientDriver::run() {
  started_at_ = rpc_.now();
  for (int i = 0; i < params_.num_dags; ++i) {
    // Load shaping: a shaped workload pauses the closed loop according to
    // the pattern's think time at this instant.  Zero for the unshaped
    // (historical) workload — no sleep, no event, bit-identical schedules.
    const Duration think = workload_.think_time_at(rpc_.now());
    if (think > Duration{0}) co_await sim::sleep_for(rpc_.loop(), think);
    // Encoded once per DAG; every attempt's StartDag shares the bytes.
    const faas::DagView spec = workload_.next_dag();
    for (int attempt = 0; attempt <= params_.max_retries; ++attempt) {
      const SimTime t0 = rpc_.now();
      if (metrics_ != nullptr) metrics_->dag_attempts.inc();
      faas::DagDoneMsg done = co_await execute_once(spec, attempt);
      const double latency_ms = to_millis(rpc_.now() - t0);
      if (done.committed) {
        committed_.inc();
        if (oracle_ != nullptr) {
          // Oracle runs are FaaSTCC-only, so the session blob is the
          // FaaSTCC encoding (the previous commit's timestamp).
          oracle_->on_session_commit(
              params_.client_id, client::decode_faastcc_session(done.session));
        }
        session_ = std::move(done.session);
        if (metrics_ != nullptr) {
          metrics_->dag_commits.inc();
          metrics_->dag_latency_ms.add(latency_ms);
        }
        break;
      }
      aborted_attempts_.inc();
      if (metrics_ != nullptr) {
        metrics_->dag_aborts.inc();
        metrics_->aborted_latency_ms.add(latency_ms);
      }
    }
  }
  finished_at_ = rpc_.now();
  done_ = true;
}

}  // namespace faastcc::workload
