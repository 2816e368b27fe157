// The function scheduler: receives DAG execution requests from clients,
// places every function on a compute node, and fires the root trigger.
// The paper's design is agnostic to the placement heuristic (§3.2); we
// place uniformly at random.
#pragma once

#include <vector>

#include "common/fifo_window.h"
#include "common/rng.h"
#include "common/stats.h"
#include "faas/messages.h"
#include "net/rpc.h"
#include "obs/trace.h"

namespace faastcc::faas {

struct SchedulerParams {
  Duration service_time = microseconds(150);
  // Capacity of the dispatched-txn dedup window (FIFO eviction).  Clients
  // use a fresh transaction id per DAG attempt, so a repeated id is always
  // a fabric-duplicated kStartDag; dispatching it again would place a
  // ghost copy of the DAG on independently chosen nodes, where the
  // per-node trigger dedup cannot see it.
  size_t start_dedup_cap = 1 << 16;
};

class Scheduler {
 public:
  Scheduler(net::Network& network, net::Address self,
            std::vector<net::Address> nodes, SchedulerParams params, Rng rng,
            obs::Tracer* tracer = nullptr);

  net::Address address() const { return rpc_.address(); }
  uint64_t dags_started() const { return dags_started_.value(); }
  uint64_t dup_starts_dropped() const { return dup_starts_dropped_.value(); }

 private:
  void on_start(Buffer msg, net::Address from);
  sim::Task<void> dispatch(StartDagMsg start, obs::TraceContext trace);

  net::RpcNode rpc_;
  std::vector<net::Address> nodes_;
  SchedulerParams params_;
  Rng rng_;
  obs::Tracer* tracer_;
  Counter dags_started_;
  Counter dup_starts_dropped_;
  // At-most-once dispatch per transaction id (FIFO window, same idiom as
  // the compute nodes' executed-(txn, fn) window).
  FifoWindow<TxnId> started_;
};

}  // namespace faastcc::faas
