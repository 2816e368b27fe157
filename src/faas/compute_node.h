// A compute node: a pool of executor threads plus the node-local cache
// (owned externally and colocated on the network).  Receives triggers,
// merges parent contexts at joins, runs function bodies against the
// system's client library, and forwards context + results downstream.
#pragma once

#include <map>
#include <memory>
#include <unordered_set>

#include "client/txn.h"
#include "common/fifo_window.h"
#include "common/metrics.h"
#include "faas/function_registry.h"
#include "faas/messages.h"
#include "net/rpc.h"
#include "obs/trace.h"
#include "sim/async_queue.h"

namespace faastcc::faas {

struct ComputeNodeParams {
  int executors = 3;  // paper: 3 executor threads per pod
  // Fixed compute time of a function body (stands in for the Python-level
  // work Cloudburst executors do per invocation).
  Duration function_service_time = microseconds(1000);
  // Context (de)serialization + merge cost per kilobyte.  This is the cost
  // that makes HydroCache's multi-kilobyte dependency maps expensive to
  // ship from function to function (§6.3/§6.8).
  double context_cpu_us_per_kb = 85.0;
  Duration dispatch_overhead = microseconds(50);
  // A join whose sibling trigger was lost on the fabric can never complete;
  // half-assembled join state older than this is swept (the client's DAG
  // watchdog retries the whole DAG, so nothing is waiting on it).
  Duration join_gc_age = seconds(2);
  // Capacity of the executed-(txn, fn) dedup window (FIFO eviction).  A
  // duplicated trigger only matters within the fabric's duplication
  // horizon, so the default is generous; tests shrink it to force races.
  size_t executed_dedup_cap = 1 << 16;
  // Capacity of the aborted-transaction tombstone window (FIFO eviction).
  // Tombstones only drop in-flight stragglers of an aborted transaction,
  // which arrive within a network delay; tests shrink it to force races.
  size_t aborted_dedup_cap = 10000;
};

class ComputeNode {
 public:
  // The adapter is created by a factory because it needs the node's own
  // RPC endpoint (to reach the colocated cache and the storage layer).
  using AdapterFactory =
      std::function<std::unique_ptr<client::SystemAdapter>(net::RpcNode&)>;

  ComputeNode(net::Network& network, net::Address self,
              std::shared_ptr<FunctionRegistry> registry,
              const AdapterFactory& adapter_factory, ComputeNodeParams params,
              Metrics* metrics, obs::Tracer* tracer = nullptr);

  // Spawns the executor pool.
  void start();

  net::Address address() const { return rpc_.address(); }
  net::RpcNode& rpc() { return rpc_; }

  struct Counters {
    Counter triggers;
    Counter functions_executed;
    Counter joins_merged;
    Counter aborts_raised;
    Counter stale_triggers_dropped;
  };
  const Counters& counters() const { return counters_; }

 private:
  struct Work {
    TriggerMsg trigger;                   // representative trigger
    std::vector<Payload> parent_contexts;  // all parents' contexts
    obs::TraceContext trace;              // sender's span (joins: first seen)
    SimTime enqueued = 0;                 // queue-wait measurement start
  };

  void on_trigger(Buffer msg, net::Address from);
  void on_abort_notice(Buffer msg, net::Address from);
  sim::Task<void> executor_loop();
  sim::Task<void> execute(Work work);
  void send_abort(const TriggerMsg& t);
  Duration context_cost(size_t bytes) const;

  net::RpcNode rpc_;
  std::shared_ptr<FunctionRegistry> registry_;
  std::unique_ptr<client::SystemAdapter> adapter_;
  ComputeNodeParams params_;
  Metrics* metrics_;
  obs::Tracer* tracer_;
  sim::AsyncQueue<Work> ready_;

  // Join buffering: contexts received so far per (txn, function).
  struct JoinKey {
    TxnId txn;
    uint32_t fn;
    auto operator<=>(const JoinKey&) const = default;
  };
  struct JoinKeyHash {
    size_t operator()(const JoinKey& k) const {
      return std::hash<uint64_t>()(k.txn * 1000003 + k.fn);
    }
  };
  struct JoinState {
    TriggerMsg first;
    std::vector<Payload> contexts;
    std::unordered_set<uint32_t> parents_seen;
    SimTime created = 0;
    obs::TraceContext trace;  // first-arriving parent's span
  };
  // Ordered by (txn, fn), so an abort notice erases exactly its
  // transaction's joins.
  std::map<JoinKey, JoinState> joins_;
  void gc_stale_joins();
  // At-most-once execution per (txn, function): a duplicated trigger for a
  // chain function (or a full set of duplicated parents resurrecting an
  // already-fired join) must not run the body a second time — the ghost
  // execution re-reads at a different snapshot and races its divergent
  // writes against the real commit.  FIFO window, same idiom as the
  // partition's resolved-transaction dedup.
  FifoWindow<JoinKey, NoValue, JoinKeyHash> executed_;
  // Transactions known to have aborted; late triggers are dropped.  FIFO
  // window of aborted_dedup_cap tombstones: a wholesale clear would forget
  // the transactions that just aborted, whose stragglers are still in
  // flight.
  FifoWindow<TxnId> aborted_;
  Counters counters_;
};

}  // namespace faastcc::faas
