// Experiment harness: assembles a full simulated cluster for any of the
// three systems and runs the closed-loop workload to completion.
//
// Default sizes mirror the paper's testbed (§6.1): 16 storage partitions,
// 10 compute nodes with 3 executors each, 16 closed-loop clients issuing
// 1000 DAGs, 100 000 keys of 8 bytes, 50 ms cache refresh period.
#pragma once

#include <memory>
#include <vector>

#include "cache/faastcc_cache.h"
#include "cache/hydro_cache.h"
#include "cache/plain_cache.h"
#include "check/oracle.h"
#include "client/eventual_client.h"
#include "harness/autoscaler.h"
#include "client/faastcc_client.h"
#include "client/hydro_client.h"
#include "common/metrics.h"
#include "faas/compute_node.h"
#include "faas/scheduler.h"
#include "net/network.h"
#include "obs/trace.h"
#include "routing/topology_service.h"
#include "storage/eventual_store.h"
#include "storage/reconfig.h"
#include "storage/tcc_partition.h"
#include "workload/client_driver.h"

namespace faastcc::harness {

enum class SystemKind { kFaasTcc, kHydroCache, kCloudburst };

const char* system_name(SystemKind s);

// Everything any of the three client libraries needs to be constructed;
// MakeAdapter reads only the fields relevant to the requested system.
struct AdapterConfig {
  net::RpcNode* rpc = nullptr;   // the owning compute node's endpoint
  net::Address cache_address = 0;
  storage::TccTopology tcc_topology;  // FaaSTCC
  storage::EvTopology ev_topology;    // HydroCache / Cloudburst
  client::FaasTccConfig faastcc;
  client::HydroConfig hydro;
  Metrics* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
  check::HistorySink* oracle = nullptr;  // FaaSTCC only
  // Replica-selection stream for the eventually consistent systems.  Fork
  // it from the cluster rng in the same order the adapters were previously
  // constructed, or seeds stop reproducing pre-factory runs.
  Rng rng = Rng(0);
};

// Unified adapter construction for all three systems.
std::unique_ptr<client::SystemAdapter> MakeAdapter(SystemKind kind,
                                                   const AdapterConfig& config);

// Elastic reconfiguration schedule (FaaSTCC only).  Scale-out: at `at`
// sim-time after start, `add_partitions` joiners are brought up, the
// routing table is bumped one epoch, and the stolen slots' version chains
// are migrated with a promise-sound handoff.  Scale-in: at `remove_at`,
// the trailing `remove_partitions` partitions drain their slots to the
// survivors and retire (followers with them).  Inert unless enabled(): a
// cluster with the elastic machinery compiled in but nothing scheduled
// runs bit-identically to one without it.
struct ElasticParams {
  size_t add_partitions = 0;
  Duration at = Duration{0};
  size_t remove_partitions = 0;
  Duration remove_at = Duration{0};
  size_t slots_per_partition = routing::RoutingTable::kDefaultSlotsPerPartition;
  bool scale_out_scheduled() const {
    return add_partitions > 0 && at > Duration{0};
  }
  bool scale_in_scheduled() const {
    return remove_partitions > 0 && remove_at > Duration{0};
  }
  bool enabled() const {
    return scale_out_scheduled() || scale_in_scheduled();
  }
};

// Per-slot replica chains (FaaSTCC only): each partition leader gets
// `factor` synchronous followers; a commit is acked only after every
// caught-up follower has the installs, and a follower that stops hearing
// seal beats for `lease_timeout` bids for promotion at the topology
// service.  Inert unless enabled(): factor 0 runs bit-identically to a
// build without the replication machinery.
struct ReplicationParams {
  size_t factor = 0;  // followers per partition (max 4)
  Duration lease_timeout = milliseconds(60);
  bool enabled() const { return factor > 0; }
};

struct ClusterParams {
  SystemKind system = SystemKind::kFaasTcc;
  uint64_t seed = 42;

  size_t partitions = 16;   // TCC partitions / eventual-store partitions
  size_t ev_replicas = 2;   // replication factor of the eventual store
  size_t compute_nodes = 10;
  size_t clients = 16;
  int dags_per_client = 1000;

  // Cache capacity in entries per node; SIZE_MAX unbounded, 0 disabled.
  size_t cache_capacity = SIZE_MAX;

  workload::WorkloadParams workload;
  client::FaasTccConfig faastcc;
  client::HydroConfig hydro;
  storage::TccPartitionParams tcc;
  storage::EventualStoreParams ev;
  faas::ComputeNodeParams node;
  faas::SchedulerParams scheduler;
  net::NetworkParams net;
  cache::CacheParams faastcc_cache;
  cache::HydroCacheParams hydro_cache;
  cache::PlainCacheParams plain_cache;

  // Fault-injection knobs.
  // Network faults (message loss, duplication, delay spikes, crash
  // windows) plus the RPC/DAG timeouts that make the systems survive
  // them.  Entirely inert unless faults.enabled() — fault-free runs draw
  // the exact same random streams as before this layer existed.
  net::FaultParams faults;
  // Mid-run scheduled partition scale-out / scale-in (FaaSTCC only).
  ElasticParams elastic;
  // Metric-driven autoscaler (FaaSTCC only): grows/shrinks the partition
  // count from the committed-DAG p99.
  AutoscaleParams autoscale;
  // Per-slot replica chains (FaaSTCC only).
  ReplicationParams replication;
  // Residual NTP skew: each partition's physical clock is offset by a
  // uniform random amount in [-clock_skew_us, clock_skew_us].
  int64_t clock_skew_us = 100;
  // Multiplies partition 0's stabilization gossip period (a straggler).
  int straggler_gossip_factor = 1;

  // Deterministic distributed tracing (off by default: with tracing off the
  // run is bit-identical to a build without the observability layer).
  obs::TraceParams trace;

  // Attach the consistency oracle (FaaSTCC only).  Like tracing it is
  // zero-perturbation: the run is bit-identical with it on or off.
  bool check_consistency = false;

  // Pre-warm node caches with the hottest keys before the measured phase
  // (§6.1: "cache sizes are unbounded and were pre-warmed").  Bounded
  // caches are warmed up to their capacity.
  bool prewarm_caches = true;
  Duration warmup = milliseconds(250);
  Duration max_sim_time = seconds(3600);
  int client_max_retries = 50;
};

struct RunResult {
  Metrics metrics;
  double duration_s = 0;       // wall time of the measured phase (sim)
  double throughput = 0;       // committed DAGs per second
  uint64_t committed = 0;
  uint64_t aborted_attempts = 0;
  size_t cache_entries = 0;    // across all nodes, end of run
  size_t cache_bytes = 0;
  uint64_t sim_events = 0;
};

class Cluster {
 public:
  // `tap` (FaaSTCC with check_consistency only) receives the same history
  // as the oracle, e.g. a second checker to compare verdicts against.
  explicit Cluster(ClusterParams params, check::HistorySink* tap = nullptr);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  // Preloads the dataset, starts background services, runs the warmup.
  void start();
  // Runs every client to completion (call after start()).
  RunResult run_clients();
  // start() + run_clients().
  RunResult run();

  // Component access for tests and examples.
  sim::EventLoop& loop() { return loop_; }
  net::Network& network() { return network_; }
  faas::FunctionRegistry& registry() { return *registry_; }
  Metrics& metrics() { return metrics_; }
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }
  // nullptr unless check_consistency was set (and the system is FaaSTCC).
  check::ConsistencyOracle* oracle() { return oracle_.get(); }
  const ClusterParams& params() const { return params_; }
  net::Address scheduler_address() const;
  const faas::Scheduler& scheduler() const { return *scheduler_; }

  std::vector<std::unique_ptr<storage::TccPartition>>& tcc_partitions() {
    return tcc_partitions_;
  }
  // Follower endpoints, p-major (follower r of partition p at index
  // p * replication.factor + r).  Empty unless replication is enabled.
  std::vector<std::unique_ptr<storage::TccPartition>>& tcc_followers() {
    return tcc_followers_;
  }
  std::vector<std::unique_ptr<storage::EvReplica>>& ev_replicas() {
    return ev_replicas_;
  }
  std::vector<std::unique_ptr<cache::FaasTccCache>>& faastcc_caches() {
    return faastcc_caches_;
  }
  std::vector<std::unique_ptr<cache::HydroCache>>& hydro_caches() {
    return hydro_caches_;
  }
  std::vector<std::unique_ptr<workload::ClientDriver>>& clients() {
    return clients_;
  }

  storage::TccTopology tcc_topology() const;
  storage::EvTopology ev_topology() const;
  // nullptr for the eventually consistent systems.
  routing::TopologyService* topology_service() { return topo_.get(); }
  // nullptr unless elastic or autoscale is configured (FaaSTCC only).
  storage::ReconfigEngine* reconfig() { return reconfig_.get(); }
  Autoscaler* autoscaler() { return autoscaler_.get(); }

 private:
  void build_storage();
  void build_compute();
  void build_clients();
  void preload();
  void prewarm();
  void collect_cache_gauges(RunResult& out) const;
  // Scheduled-transition drivers: sleep until the configured instant, then
  // hand the target table to the reconfiguration engine.
  sim::Task<void> run_scheduled_scale_out();
  sim::Task<void> run_scheduled_scale_in();

  ClusterParams params_;
  Rng rng_;
  sim::EventLoop loop_;
  net::Network network_;
  Metrics metrics_;
  obs::Tracer tracer_;
  std::unique_ptr<check::ConsistencyOracle> oracle_;
  std::unique_ptr<check::TeeSink> tee_;  // oracle + tap, when tapped
  // What the hook sites record into: the oracle, the tee, or nullptr.
  check::HistorySink* history_ = nullptr;
  std::shared_ptr<faas::FunctionRegistry> registry_;
  std::unique_ptr<routing::TopologyService> topo_;
  // All reconfiguration state (control endpoint, slot-handoff pipeline,
  // transition bookkeeping) lives behind the engine; the harness keeps
  // only this handle.  Null unless elastic or autoscale is configured.
  std::unique_ptr<storage::ReconfigEngine> reconfig_;
  std::unique_ptr<Autoscaler> autoscaler_;

  std::vector<std::unique_ptr<storage::TccPartition>> tcc_partitions_;
  std::vector<std::unique_ptr<storage::TccPartition>> tcc_followers_;
  std::vector<std::unique_ptr<storage::EvReplica>> ev_replicas_;
  std::vector<std::unique_ptr<cache::FaasTccCache>> faastcc_caches_;
  std::vector<std::unique_ptr<cache::HydroCache>> hydro_caches_;
  std::vector<std::unique_ptr<cache::PlainCache>> plain_caches_;
  std::vector<std::unique_ptr<faas::ComputeNode>> nodes_;
  std::unique_ptr<faas::Scheduler> scheduler_;
  std::vector<std::unique_ptr<workload::ClientDriver>> clients_;
  bool started_ = false;
};

}  // namespace faastcc::harness
