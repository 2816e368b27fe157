// Typed client-side access to both storage services.
//
// TccStorageClient groups keys by partition, fans RPCs out in parallel and
// runs the prepare/commit protocol for multi-partition writes (with a
// single-RPC fast path when one partition owns every written key).
// EvStorageClient does the same for the eventually consistent store,
// picking a random replica per request — the source of staleness the
// HydroCache baseline must cope with.
#pragma once

#include <optional>
#include <vector>

#include "check/history.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "net/rpc.h"
#include "obs/trace.h"
#include "routing/routing_table.h"
#include "storage/messages.h"

namespace faastcc::storage {

// Key -> partition view held by a storage client.
//
// Two modes share the struct.  The plain-vector mode (fill `partitions`,
// leave `table` null) is the historical static construction used by unit
// tests and non-elastic assemblies: routing is `key mod N` and the epoch
// is 0, which opts the client out of epoch gating entirely.  The
// table-backed mode routes through an epoch-stamped routing::RoutingTable
// and is what the harness wires up, making the client a participant in
// elastic scale-out.
struct TccTopology {
  std::vector<net::Address> partitions;  // epoch-1 construction interface
  routing::TablePtr table;               // authoritative when set

  TccTopology() = default;
  TccTopology(std::initializer_list<net::Address> p) : partitions(p) {}
  explicit TccTopology(routing::TablePtr t)
      : partitions(t->partitions), table(std::move(t)) {}

  size_t num_partitions() const {
    return table != nullptr ? table->num_partitions() : partitions.size();
  }
  uint32_t epoch() const { return table != nullptr ? table->epoch : 0; }
  PartitionId partition_of(Key k) const {
    return table != nullptr
               ? table->partition_of(k)
               : routing::mod_partition(k, partitions.size());
  }
  net::Address address_of(Key k) const {
    return table != nullptr ? table->address_of(k)
                            : partitions[partition_of(k)];
  }
};

class TccStorageClient {
 public:
  TccStorageClient(net::RpcNode& rpc, TccTopology topology,
                   obs::Tracer* tracer = nullptr,
                   check::HistorySink* oracle = nullptr)
      : rpc_(rpc), topology_(std::move(topology)), tracer_(tracer),
        oracle_(oracle) {
    // Table-backed clients participate in epoch gating from the start;
    // plain-vector clients stay at epoch 0 and are never NACKed.
    if (topology_.table != nullptr) {
      rpc_.set_routing_epoch(topology_.table->epoch);
    }
  }

  struct ReadAccounting {
    size_t rpcs = 0;            // individual partition requests
    size_t request_bytes = 0;   // request payload bytes (excl. framing)
    size_t response_bytes = 0;  // response payload bytes (excl. framing)
  };

  // Reads `keys` at `snapshot`; `cached_ts[i]` is the version the caller
  // already holds (Timestamp::min() for none), enabling "unchanged"
  // promise-refresh responses.  Entries come back in input key order.
  // nullopt when a partition stayed unreachable through the retry budget.
  sim::Task<std::optional<TccReadResp>> read(
      std::vector<Key> keys, std::vector<Timestamp> cached_ts,
      Timestamp snapshot, ReadAccounting* accounting = nullptr,
      obs::TraceContext trace = {});

  // Commits `writes` atomically with a timestamp above `dep_ts`; returns
  // the commit timestamp, or nullopt when a participant stayed unreachable
  // through the (generous) commit retry budget.
  sim::Task<std::optional<Timestamp>> commit(TxnId txn,
                                             std::vector<KeyValue> writes,
                                             Timestamp dep_ts,
                                             obs::TraceContext trace = {});

  // Snapshot Isolation commit (§7 extension): first-committer-wins
  // write-write conflict detection against `snapshot_ts`.  Returns the
  // commit timestamp, or std::nullopt when the transaction must abort
  // (conflict, or a participant unreachable through the retry budget).
  // Always runs the full prepare/commit protocol so conflicting prepares
  // serialize even on a single partition.
  sim::Task<std::optional<Timestamp>> commit_si(TxnId txn,
                                                std::vector<KeyValue> writes,
                                                Timestamp dep_ts,
                                                Timestamp snapshot_ts,
                                                obs::TraceContext trace = {});

  // (Un)subscribes at the owning partitions.  `seq` orders the caller's
  // control stream per partition (see SubscribeReq::seq); 0 = unsequenced.
  // subscribe() returns true only when every partition acknowledged — a
  // subscription is not live (and promises must not rely on it) otherwise.
  sim::Task<bool> subscribe(std::vector<Key> keys, uint64_t seq = 0);
  sim::Task<void> unsubscribe(std::vector<Key> keys, uint64_t seq = 0);

  const TccTopology& topology() const { return topology_; }
  uint32_t epoch() const { return topology_.epoch(); }

  // ---- Elastic routing ----------------------------------------------------
  // Where to pull a fresh RoutingTable after a wrong-epoch NACK (0 = no
  // topology service: the client keeps its static table forever).  The
  // metrics registry, when given, accounts wrong-epoch retries.
  void enable_routing_refresh(net::Address topo_service,
                              Metrics* metrics = nullptr) {
    topo_service_ = topo_service;
    metrics_ = metrics;
  }
  // Fires after a newer table is adopted, with the table it replaced —
  // the cache uses this to re-home subscriptions and stable tracking.
  using TableChangeCallback = std::function<void(
      const routing::RoutingTable& old_table,
      const routing::RoutingTable& new_table)>;
  void on_table_change(TableChangeCallback cb) {
    table_change_cb_ = std::move(cb);
  }
  // Adopts `t` if it is newer than the current table; stamps the owning
  // RpcNode's epoch and fires the change callback.  Returns true on adopt.
  bool adopt_table(routing::TablePtr t);
  // Pulls the newest table from the topology service (one retry profile's
  // worth of attempts); false when unreachable or no service configured.
  sim::Task<bool> refresh_topology();

 private:
  sim::Task<bool> subscribe_impl(std::vector<Key> keys, TccMethod method,
                                 uint64_t seq);
  struct ReadOutcome {
    std::optional<TccReadResp> resp;
    bool stale_routing = false;  // wrong-epoch NACK or wrong-owner entry
  };
  sim::Task<ReadOutcome> read_once(const std::vector<Key>& keys,
                                   const std::vector<Timestamp>& cached_ts,
                                   Timestamp snapshot,
                                   ReadAccounting* accounting,
                                   obs::TraceContext trace);
  void note_wrong_epoch_retry();

  net::RpcNode& rpc_;
  TccTopology topology_;
  obs::Tracer* tracer_ = nullptr;
  check::HistorySink* oracle_ = nullptr;
  net::Address topo_service_ = 0;
  Metrics* metrics_ = nullptr;
  TableChangeCallback table_change_cb_;
  bool refresh_inflight_ = false;
};

struct EvTopology {
  // replicas[partition] lists the replica addresses of that partition.
  std::vector<std::vector<net::Address>> replicas;

  size_t num_partitions() const { return replicas.size(); }
  PartitionId partition_of(Key k) const {
    return routing::mod_partition(k, replicas.size());
  }
};

class EvStorageClient {
 public:
  EvStorageClient(net::RpcNode& rpc, EvTopology topology, Rng rng,
                  obs::Tracer* tracer = nullptr)
      : rpc_(rpc), topology_(std::move(topology)), rng_(rng),
        tracer_(tracer) {}

  struct GetResult {
    std::vector<std::optional<EvItem>> items;  // parallel to requested keys
    size_t request_bytes = 0;
    size_t response_bytes = 0;
    // True when a replica stayed unreachable through the retry budget; the
    // affected keys are indistinguishable from absent, so callers must not
    // cache the result as authoritative.
    bool failed = false;
  };

  // Reads each key from one (randomly chosen) replica of its partition.
  sim::Task<GetResult> get(std::vector<Key> keys,
                           obs::TraceContext trace = {});

  // Writes each item to one replica of its partition; returns assigned
  // versions in input order, or nullopt when a replica stayed unreachable
  // through the retry budget.
  sim::Task<std::optional<std::vector<EvVersion>>> put(
      std::vector<EvItem> items, obs::TraceContext trace = {});

  // Subscribes/unsubscribes for update notifications at the notifier
  // replica (replica 0) of each key's partition.
  sim::Task<void> subscribe(std::vector<Key> keys);
  sim::Task<void> unsubscribe(std::vector<Key> keys);

  // Most recent dependency-GC watermark piggybacked on any response.
  SimTime global_cut() const { return global_cut_; }

  const EvTopology& topology() const { return topology_; }

 private:
  net::Address pick_replica(PartitionId p);
  net::Address pick_write_replica(PartitionId p);

  net::RpcNode& rpc_;
  EvTopology topology_;
  Rng rng_;
  obs::Tracer* tracer_ = nullptr;
  SimTime global_cut_ = 0;
};

}  // namespace faastcc::storage
