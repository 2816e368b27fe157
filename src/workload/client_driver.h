// Closed-loop benchmark client (§6.1: each client sequentially issues DAG
// execution requests, starting the next as soon as the previous finishes).
#pragma once

#include <optional>
#include <unordered_map>

#include "check/history.h"
#include "common/metrics.h"
#include "faas/messages.h"
#include "net/rpc.h"
#include "obs/trace.h"
#include "workload/workload.h"

namespace faastcc::workload {

struct ClientParams {
  uint64_t client_id = 0;
  int num_dags = 1000;
  // An aborted DAG is retried (fresh attempt, fresh snapshot) up to this
  // many times before being dropped.
  int max_retries = 50;
  // Watchdog for the one-way DAG flow: a trigger or completion lost on the
  // fabric leaves no pending RPC to time out, so after this long the client
  // gives up on the attempt and retries with a fresh transaction.  0 = off
  // (the default for fault-free runs).
  Duration dag_timeout = 0;
};

class ClientDriver {
 public:
  // `oracle` (FaaSTCC runs only) records the per-client session timestamp
  // after every committed DAG for the session-monotonicity check.
  ClientDriver(net::Network& network, net::Address self,
               net::Address scheduler, WorkloadGen workload,
               ClientParams params, Metrics* metrics,
               obs::Tracer* tracer = nullptr,
               check::HistorySink* oracle = nullptr);

  // The closed loop; spawn once.  Sets done() when finished.
  sim::Task<void> run();

  bool done() const { return done_; }
  SimTime started_at() const { return started_at_; }
  SimTime finished_at() const { return finished_at_; }
  uint64_t committed() const { return committed_.value(); }
  uint64_t aborted_attempts() const { return aborted_attempts_.value(); }

 private:
  sim::Task<faas::DagDoneMsg> execute_once(const faas::DagView& spec,
                                           int attempt);
  void on_done(Buffer msg, net::Address from);
  void record_breakdown(const obs::TraceBreakdown& b);

  net::RpcNode rpc_;
  net::Address scheduler_;
  WorkloadGen workload_;
  ClientParams params_;
  Metrics* metrics_;
  obs::Tracer* tracer_;
  check::HistorySink* oracle_ = nullptr;
  Payload session_;
  TxnId next_txn_;
  std::unordered_map<TxnId, sim::Promise<faas::DagDoneMsg>> pending_;
  bool done_ = false;
  SimTime started_at_ = 0;
  SimTime finished_at_ = 0;
  Counter committed_;
  Counter aborted_attempts_;
};

}  // namespace faastcc::workload
