#include "harness/cluster.h"

#include <cassert>

#include "common/log.h"

namespace faastcc::harness {
namespace {

constexpr net::Address kSchedulerAddr = 1;
constexpr net::Address kTopoAddr = 2;
constexpr net::Address kCtlAddr = 3;
constexpr net::Address kPartitionBase = 100;
constexpr net::Address kReplicaBase = 1000;
constexpr net::Address kCacheBase = 3000;
constexpr net::Address kNodeBase = 4000;
constexpr net::Address kClientBase = 5000;
constexpr net::Address kFollowerBase = 6000;
// Address stride per partition in the follower range; bounds
// ReplicationParams::factor.
constexpr size_t kMaxFollowers = 4;

net::Address follower_address(size_t partition, size_t replica) {
  return kFollowerBase +
         static_cast<net::Address>(partition * kMaxFollowers + replica);
}

}  // namespace

const char* system_name(SystemKind s) {
  switch (s) {
    case SystemKind::kFaasTcc: return "FaaSTCC";
    case SystemKind::kHydroCache: return "HydroCache";
    case SystemKind::kCloudburst: return "Cloudburst";
  }
  return "?";
}

std::unique_ptr<client::SystemAdapter> MakeAdapter(
    SystemKind kind, const AdapterConfig& config) {
  assert(config.rpc != nullptr);
  switch (kind) {
    case SystemKind::kFaasTcc:
      return std::make_unique<client::FaasTccAdapter>(
          *config.rpc, config.cache_address, config.tcc_topology,
          config.faastcc, config.metrics, config.tracer, config.oracle);
    case SystemKind::kHydroCache:
      return std::make_unique<client::HydroAdapter>(
          *config.rpc, config.cache_address, config.ev_topology, config.rng,
          config.hydro, config.metrics, config.tracer);
    case SystemKind::kCloudburst:
      return std::make_unique<client::EventualAdapter>(
          *config.rpc, config.cache_address, config.ev_topology, config.rng,
          config.metrics, config.tracer);
  }
  return nullptr;
}

Cluster::Cluster(ClusterParams params, check::HistorySink* tap)
    : params_(std::move(params)),
      rng_(params_.seed),
      network_(loop_, params_.net, rng_.fork()),
      tracer_(params_.trace),
      registry_(std::make_shared<faas::FunctionRegistry>()) {
  workload::WorkloadGen::register_functions(*registry_);
  // Install the fault layer before anything draws from rng_: the extra
  // fork is only taken when faults are on, so fault-free runs keep the
  // exact random streams of a build without fault injection.
  if (params_.faults.enabled()) {
    network_.set_faults(params_.faults, rng_.fork());
  }
  // The oracle is pure out-of-band checking (no events, no randomness; it
  // only reads the clock), so creating it cannot perturb the run.
  if (params_.check_consistency && params_.system == SystemKind::kFaasTcc) {
    oracle_ = std::make_unique<check::ConsistencyOracle>(&loop_);
    history_ = oracle_.get();
    if (tap != nullptr) {
      tee_ = std::make_unique<check::TeeSink>(oracle_.get(), tap);
      history_ = tee_.get();
    }
  }
  // Topology service (FaaSTCC only).  Constructing it is pure endpoint
  // registration — zero events, zero randomness — so non-elastic runs are
  // unperturbed.
  if (params_.system == SystemKind::kFaasTcc) {
    std::vector<routing::PartitionAddress> addrs;
    for (size_t p = 0; p < params_.partitions; ++p) {
      addrs.push_back(kPartitionBase + static_cast<net::Address>(p));
    }
    auto initial = routing::RoutingTable::initial(
        std::move(addrs), params_.elastic.slots_per_partition);
    if (params_.replication.enabled()) {
      assert(params_.replication.factor <= kMaxFollowers);
      initial.replicas.resize(params_.partitions);
      for (size_t p = 0; p < params_.partitions; ++p) {
        for (size_t r = 0; r < params_.replication.factor; ++r) {
          initial.replicas[p].push_back(follower_address(p, r));
        }
      }
    }
    topo_ = std::make_unique<routing::TopologyService>(
        network_, kTopoAddr, routing::make_table(std::move(initial)));
    topo_->set_metrics(&metrics_);
  }
  build_storage();
  build_compute();
  build_clients();
  // The reconfiguration engine (and, on top of it, the autoscaler) exists
  // only when some transition can actually happen.  Construction is pure
  // state — one endpoint registration, no events, no randomness.
  if (params_.system == SystemKind::kFaasTcc &&
      (params_.elastic.enabled() || params_.autoscale.enabled())) {
    reconfig_ = std::make_unique<storage::ReconfigEngine>(
        network_, kCtlAddr, *topo_, &metrics_);
    for (auto& p : tcc_partitions_) reconfig_->register_instance(p.get());
    for (auto& f : tcc_followers_) reconfig_->register_follower(f.get());
    if (params_.autoscale.enabled()) {
      autoscaler_ = std::make_unique<Autoscaler>(
          loop_, *reconfig_, metrics_, params_.autoscale,
          [](size_t first_id, size_t count) {
            std::vector<routing::PartitionAddress> out;
            for (size_t i = 0; i < count; ++i) {
              out.push_back(kPartitionBase +
                            static_cast<net::Address>(first_id + i));
            }
            return out;
          });
    }
  }
}

Cluster::~Cluster() = default;

net::Address Cluster::scheduler_address() const { return kSchedulerAddr; }

storage::TccTopology Cluster::tcc_topology() const {
  // FaaSTCC only, which always builds the topology service (epoch-1
  // routing is bit-identical to the legacy modulo scheme).
  assert(topo_ != nullptr);
  return storage::TccTopology(topo_->table());
}

storage::EvTopology Cluster::ev_topology() const {
  storage::EvTopology topo;
  topo.replicas.resize(params_.partitions);
  for (size_t p = 0; p < params_.partitions; ++p) {
    for (size_t r = 0; r < params_.ev_replicas; ++r) {
      topo.replicas[p].push_back(
          kReplicaBase +
          static_cast<net::Address>(p * params_.ev_replicas + r));
    }
  }
  return topo;
}

std::unique_ptr<storage::TccPartition> Cluster::make_tcc_partition(
    net::Address addr, PartitionId id, const std::vector<net::Address>& all,
    storage::TccPartitionParams tcc_params) {
  // Residual NTP skew: each instance's physical clock is offset by a
  // bounded random amount.
  if (params_.clock_skew_us > 0) {
    tcc_params.clock_offset_us =
        static_cast<int64_t>(rng_.next_below(
            2 * static_cast<uint64_t>(params_.clock_skew_us))) -
        params_.clock_skew_us;
  }
  auto part = std::make_unique<storage::TccPartition>(
      network_, addr, id, all, tcc_params, &tracer_, history_);
  part->set_topo_service(kTopoAddr);
  part->set_metrics(&metrics_);
  topo_->add_listener(addr);
  return part;
}

void Cluster::build_storage() {
  if (params_.system == SystemKind::kFaasTcc) {
    const auto topo = tcc_topology();
    for (size_t p = 0; p < params_.partitions; ++p) {
      auto tcc_params = params_.tcc;
      if (p == 0 && params_.straggler_gossip_factor > 1) {
        tcc_params.gossip_period *= params_.straggler_gossip_factor;
      }
      tcc_partitions_.push_back(
          make_tcc_partition(topo.partitions[p], static_cast<PartitionId>(p),
                             topo.partitions, tcc_params));
      tcc_partitions_.back()->set_routing(topo_->table());
    }
    // Deferred joiners: constructed only when something can scale OUT —
    // a scheduled scale-out, or an autoscaler whose ceiling exceeds the
    // starting count — so the rng stream (clock-skew draws) of runs that
    // can only shrink is untouched.  Autoscale headroom is pre-built to
    // the ceiling: ids the scaler never reaches stay inert (deferred
    // serving, no events).
    const size_t scheduled_add = params_.elastic.scale_out_scheduled()
                                     ? params_.elastic.add_partitions
                                     : 0;
    const size_t autoscale_add =
        params_.autoscale.enabled() &&
                params_.autoscale.max_partitions > params_.partitions
            ? params_.autoscale.max_partitions - params_.partitions
            : 0;
    const size_t extra_partitions = std::max(scheduled_add, autoscale_add);
    if (extra_partitions > 0) {
      const size_t old_n = params_.partitions;
      std::vector<net::Address> all = topo.partitions;
      for (size_t i = 0; i < extra_partitions; ++i) {
        all.push_back(kPartitionBase + static_cast<net::Address>(old_n + i));
      }
      for (size_t i = 0; i < extra_partitions; ++i) {
        tcc_partitions_.push_back(make_tcc_partition(
            all[old_n + i], static_cast<PartitionId>(old_n + i), all,
            params_.tcc));
        tcc_partitions_.back()->defer_serving();
      }
    }
    // Followers: constructed only when replication is enabled, so the rng
    // stream (clock-skew draws) of unreplicated runs is untouched — same
    // gating discipline as the deferred joiners above.
    if (params_.replication.enabled()) {
      auto tcc_params = params_.tcc;
      tcc_params.repl_lease_timeout = params_.replication.lease_timeout;
      for (size_t p = 0; p < params_.partitions; ++p) {
        std::vector<net::Address> followers;
        for (size_t r = 0; r < params_.replication.factor; ++r) {
          const net::Address addr = follower_address(p, r);
          tcc_followers_.push_back(make_tcc_partition(
              addr, static_cast<PartitionId>(p), topo.partitions, tcc_params));
          auto& follower = *tcc_followers_.back();
          // make_follower before set_routing: a follower adopting a table
          // that names it as leader promotes itself, and the role decides
          // that check.
          follower.make_follower(topo.partitions[p]);
          follower.set_routing(topo_->table());
          followers.push_back(addr);
        }
        tcc_partitions_[p]->set_followers(std::move(followers));
      }
    }
    return;
  }
  const auto topo = ev_topology();
  std::vector<net::Address> all;
  for (const auto& reps : topo.replicas) {
    all.insert(all.end(), reps.begin(), reps.end());
  }
  for (size_t p = 0; p < params_.partitions; ++p) {
    for (size_t r = 0; r < params_.ev_replicas; ++r) {
      std::vector<net::Address> peers;
      for (size_t r2 = 0; r2 < params_.ev_replicas; ++r2) {
        if (r2 != r) peers.push_back(topo.replicas[p][r2]);
      }
      ev_replicas_.push_back(std::make_unique<storage::EvReplica>(
          network_, topo.replicas[p][r], p * params_.ev_replicas + r, peers,
          all, params_.ev));
    }
  }
}

void Cluster::build_compute() {
  for (size_t n = 0; n < params_.compute_nodes; ++n) {
    const net::Address cache_addr = kCacheBase + static_cast<net::Address>(n);
    const net::Address node_addr = kNodeBase + static_cast<net::Address>(n);
    network_.colocate(cache_addr, node_addr);

    // One AdapterConfig per node; the rng fork order below (cache first,
    // then adapter, eventual systems only) reproduces the pre-factory
    // construction sequence exactly.
    AdapterConfig acfg;
    acfg.cache_address = cache_addr;
    acfg.metrics = &metrics_;
    acfg.tracer = &tracer_;
    switch (params_.system) {
      case SystemKind::kFaasTcc: {
        auto cache_params = params_.faastcc_cache;
        cache_params.capacity = params_.cache_capacity;
        cache_params.topo_service = kTopoAddr;
        faastcc_caches_.push_back(std::make_unique<cache::FaasTccCache>(
            network_, cache_addr, tcc_topology(), cache_params, &metrics_,
            &tracer_));
        topo_->add_listener(cache_addr);
        acfg.tcc_topology = tcc_topology();
        acfg.faastcc = params_.faastcc;
        acfg.faastcc.topo_service = kTopoAddr;
        acfg.oracle = history_;
        break;
      }
      case SystemKind::kHydroCache: {
        auto cache_params = params_.hydro_cache;
        cache_params.capacity = params_.cache_capacity;
        hydro_caches_.push_back(std::make_unique<cache::HydroCache>(
            network_, cache_addr, ev_topology(), rng_.fork(), cache_params,
            &metrics_, &tracer_));
        acfg.ev_topology = ev_topology();
        acfg.hydro = params_.hydro;
        acfg.rng = rng_.fork();
        break;
      }
      case SystemKind::kCloudburst: {
        auto cache_params = params_.plain_cache;
        cache_params.capacity = params_.cache_capacity;
        plain_caches_.push_back(std::make_unique<cache::PlainCache>(
            network_, cache_addr, ev_topology(), rng_.fork(), cache_params,
            &metrics_, &tracer_));
        acfg.ev_topology = ev_topology();
        acfg.rng = rng_.fork();
        break;
      }
    }
    faas::ComputeNode::AdapterFactory factory =
        [kind = params_.system, acfg](net::RpcNode& rpc) {
          AdapterConfig c = acfg;
          c.rpc = &rpc;
          return MakeAdapter(kind, c);
        };
    nodes_.push_back(std::make_unique<faas::ComputeNode>(
        network_, node_addr, registry_, factory, params_.node, &metrics_,
        &tracer_));
  }

  std::vector<net::Address> node_addrs;
  node_addrs.reserve(nodes_.size());
  for (const auto& n : nodes_) node_addrs.push_back(n->address());
  scheduler_ = std::make_unique<faas::Scheduler>(
      network_, kSchedulerAddr, node_addrs, params_.scheduler, rng_.fork(),
      &tracer_);
}

void Cluster::build_clients() {
  if (params_.clients == 0) return;
  // One Zipf table for every client: each WorkloadGen holds a handle.
  const ZipfSampler zipf(params_.workload.num_keys, params_.workload.zipf);
  for (size_t c = 0; c < params_.clients; ++c) {
    workload::ClientParams cp;
    cp.client_id = c;
    cp.num_dags = params_.dags_per_client;
    cp.max_retries = params_.client_max_retries;
    cp.dag_timeout =
        params_.faults.enabled() ? params_.faults.dag_timeout : Duration{0};
    clients_.push_back(std::make_unique<workload::ClientDriver>(
        network_, kClientBase + static_cast<net::Address>(c), kSchedulerAddr,
        workload::WorkloadGen(params_.workload, rng_.fork(), zipf), cp,
        &metrics_, &tracer_, history_));
  }
}

void Cluster::preload() {
  const Value value(params_.workload.value_size, 'x');
  const Timestamp init_ts(1, 0, 0);
  // Partition p preloads the keys k with k % partitions == p.
  const uint64_t keys = params_.workload.num_keys;
  const size_t parts = params_.partitions;
  auto keys_of = [&](size_t p) { return (keys + parts - 1 - p) / parts; };
  if (params_.system == SystemKind::kFaasTcc) {
    for (size_t p = 0; p < parts; ++p) {
      tcc_partitions_[p]->store().reserve(keys_of(p));
      if (!params_.replication.enabled()) continue;
      for (size_t r = 0; r < params_.replication.factor; ++r) {
        tcc_followers_[p * params_.replication.factor + r]->store().reserve(
            keys_of(p));
      }
    }
    for (Key k = 0; k < keys; ++k) {
      const size_t p = k % parts;
      tcc_partitions_[p]->store().install(k, value, init_ts);
      // Followers start from the same preloaded image as their leader, so
      // the replication stream only ever carries post-start commits.  Not
      // re-recorded at the oracle: the preload is one logical install.
      if (params_.replication.enabled()) {
        for (size_t r = 0; r < params_.replication.factor; ++r) {
          tcc_followers_[p * params_.replication.factor + r]->store().install(
              k, value, init_ts);
        }
      }
      if (history_ != nullptr) history_->on_preload(k, init_ts, value);
    }
    return;
  }
  // Eventual store: the payload layout depends on the client library.
  Value payload;
  if (params_.system == SystemKind::kHydroCache) {
    cache::HydroStored stored;
    stored.value = value;
    const Buffer b = encode_message(stored);
    payload = Value(std::string_view(reinterpret_cast<const char*>(b.data()),
                                     b.size()));
  } else {
    payload = value;
  }
  for (size_t p = 0; p < parts; ++p) {
    for (size_t r = 0; r < params_.ev_replicas; ++r) {
      ev_replicas_[p * params_.ev_replicas + r]->reserve(keys_of(p));
    }
  }
  for (Key k = 0; k < keys; ++k) {
    storage::EvItem item;
    item.key = k;
    item.version = storage::EvVersion{1, 0};
    item.written_at = 0;
    item.payload = payload;
    const size_t p = k % parts;
    for (size_t r = 0; r < params_.ev_replicas; ++r) {
      ev_replicas_[p * params_.ev_replicas + r]->preload(item);
    }
  }
}

void Cluster::start() {
  assert(!started_);
  started_ = true;
  preload();
  // Deferred joiners are not started here: activation (all expected
  // migrate-in parcels applied) starts their background loops.
  for (auto& p : tcc_partitions_) {
    if (p->serving()) p->start();
  }
  // Followers never serve clients; they only run the lease loop (their
  // replication handlers are live from construction).
  for (auto& f : tcc_followers_) f->start_follower();
  if (reconfig_ != nullptr) {
    if (params_.elastic.scale_out_scheduled()) {
      sim::spawn(run_scheduled_scale_out());
    }
    if (params_.elastic.scale_in_scheduled()) {
      sim::spawn(run_scheduled_scale_in());
    }
    if (autoscaler_ != nullptr) sim::spawn(autoscaler_->run());
  }
  for (auto& r : ev_replicas_) r->start();
  for (auto& n : nodes_) n->start();
  loop_.run_until(params_.warmup);
  if (params_.prewarm_caches) prewarm();
}

void Cluster::prewarm() {
  // Zipf ranks map to key ids directly, so warming keys [0, n) warms the
  // hottest n keys.  Bounded caches are warmed to capacity.  Tables fill
  // one at a time (interleaving them key by key is slower), then each key's
  // subscriber list is built once, at its size; no event runs in between,
  // so open entries stay sound.  The chaos knob reproduces the historical
  // API misuse: open prewarm entries without a subscription backing them.
  const Value value(params_.workload.value_size, 'x');
  const Timestamp init_ts(1, 0, 0);
  const uint64_t limit =
      std::min<uint64_t>(params_.workload.num_keys, params_.cache_capacity);
  const size_t parts = params_.partitions;
  const bool chaos = params_.faastcc_cache.chaos_prewarm_open;
  std::vector<net::Address> caches;
  for (auto& cache : faastcc_caches_) {
    cache->reserve(limit);
    for (Key k = 0; k < limit; ++k) {
      const Timestamp promise = tcc_partitions_[k % parts]->stable_time();
      cache->prewarm(storage::VersionedValue{k, value, init_ts, promise},
                     /*subscribed=*/!chaos);
    }
    if (!chaos) caches.push_back(cache->address());
  }
  for (auto& cache : hydro_caches_) {
    cache->reserve(limit);
    for (Key k = 0; k < limit; ++k) cache->prewarm(k, value, 1, 0);
    caches.push_back(cache->address());
  }
  for (auto& cache : plain_caches_) {
    cache->reserve(limit);
    for (Key k = 0; k < limit; ++k) cache->prewarm(k, value);
    caches.push_back(cache->address());
  }
  std::sort(caches.begin(), caches.end());
  // FaaSTCC caches subscribe at the partition, the others at its notifier
  // replica (replica 0).
  const bool tcc = !faastcc_caches_.empty();
  for (Key k = 0; k < limit; ++k) {
    const size_t p = k % parts;
    if (tcc) tcc_partitions_[p]->add_subscribers(k, caches);
    else ev_replicas_[p * params_.ev_replicas]->add_subscribers(k, caches);
  }
}

RunResult Cluster::run_clients() {
  assert(started_);
  const SimTime t_start = loop_.now();
  for (auto& c : clients_) sim::spawn(c->run());

  const SimTime deadline = t_start + params_.max_sim_time;
  auto all_done = [&] {
    for (const auto& c : clients_) {
      if (!c->done()) return false;
    }
    return true;
  };
  while (!all_done() && loop_.now() < deadline) {
    loop_.run_until(loop_.now() + milliseconds(100));
  }
  if (!all_done()) {
    LOG_WARN("cluster run hit max_sim_time before clients finished");
  }

  RunResult out;
  // The samples move into the result, so the cluster's histograms are
  // drained; its counters stay readable through metrics().
  out.metrics = metrics_.drain_histograms();
  SimTime t_end = t_start;
  for (const auto& c : clients_) {
    out.committed += c->committed();
    out.aborted_attempts += c->aborted_attempts();
    t_end = std::max(t_end, c->finished_at());
  }
  out.duration_s = to_seconds(t_end - t_start);
  out.throughput =
      out.duration_s > 0 ? static_cast<double>(out.committed) / out.duration_s
                         : 0.0;
  collect_cache_gauges(out);
  // The fabric keeps its own fault and RPC counts; record them once, in the
  // snapshot, so they read like any other registry counter.
  out.metrics.counter("net.lost").inc(network_.faults_lost());
  out.metrics.counter("net.duplicated").inc(network_.faults_duplicated());
  out.metrics.counter("net.delay_spikes").inc(network_.faults_delay_spikes());
  out.metrics.counter("net.crash_dropped").inc(network_.faults_crash_dropped());
  out.metrics.counter("net.rpc_timeouts").inc(network_.rpc_timeouts());
  out.metrics.counter("net.rpc_retries").inc(network_.rpc_retries());
  out.sim_events = loop_.events_processed();
  return out;
}

RunResult Cluster::run() {
  start();
  return run_clients();
}

sim::Task<void> Cluster::run_scheduled_scale_out() {
  co_await sim::sleep_for(loop_, params_.elastic.at);
  std::vector<routing::PartitionAddress> added;
  const size_t old_n = reconfig_->active_partitions();
  for (size_t i = 0; i < params_.elastic.add_partitions; ++i) {
    added.push_back(kPartitionBase + static_cast<net::Address>(old_n + i));
  }
  co_await reconfig_->scale_out(std::move(added));
}

sim::Task<void> Cluster::run_scheduled_scale_in() {
  co_await sim::sleep_for(loop_, params_.elastic.remove_at);
  co_await reconfig_->scale_in(params_.elastic.remove_partitions);
}

void Cluster::collect_cache_gauges(RunResult& out) const {
  for (const auto& c : faastcc_caches_) {
    out.cache_entries += c->entry_count();
    out.cache_bytes += c->bytes();
  }
  for (const auto& c : hydro_caches_) {
    out.cache_entries += c->total_keys();
    out.cache_bytes += c->bytes();
  }
  for (const auto& c : plain_caches_) {
    out.cache_entries += c->entry_count();
    out.cache_bytes += c->bytes();
  }
}

}  // namespace faastcc::harness
