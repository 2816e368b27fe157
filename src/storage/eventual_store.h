// Eventually consistent replicated key-value store (stand-in for Anna).
//
// Each partition is served by `replication_factor` replicas.  A client
// writes to any replica; replicas exchange anti-entropy batches every
// `gossip_period` and merge last-writer-wins by (counter, writer id).
// Reads hit one replica and may observe stale data — the property that
// forces HydroCache into multi-round reads (paper §4.1, Fig. 6).
//
// Replicas also gossip a *stable cut*: a wall-clock watermark below which
// every write is known to have reached every replica.  HydroCache uses the
// global minimum to garbage-collect dependency metadata.
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "net/rpc.h"
#include "storage/messages.h"
#include "storage/subscribers.h"

namespace faastcc::storage {

struct EventualStoreParams {
  Duration gossip_period = milliseconds(25);  // anti-entropy between replicas
  Duration cut_period = milliseconds(200);   // stable-cut gossip
  Duration push_period = milliseconds(50);   // cache update notifications
  Duration request_cpu = microseconds(15);
  Duration per_key_cpu = microseconds(2);
};

class EvReplica {
 public:
  // `peers` are the other replicas of the same partition; `all_replicas`
  // every replica in the store (for stable-cut gossip).
  EvReplica(net::Network& network, net::Address self, uint64_t replica_id,
            std::vector<net::Address> peers,
            std::vector<net::Address> all_replicas,
            EventualStoreParams params);

  void start();

  net::Address address() const { return rpc_.address(); }

  // Watermark below which this replica believes all writes are everywhere.
  SimTime global_cut() const { return global_cut_; }

  size_t num_keys() const { return data_.size(); }
  size_t payload_bytes() const { return payload_bytes_; }

  // Test access.
  const EvItem* peek(Key k) const;

  // Installs an item directly, bypassing the protocol (dataset preload).
  void preload(EvItem item) { merge(std::move(item)); }

  // Registers a cache for update notifications (setup path; the protocol
  // path is the kEvSubscribe RPC).  Caches subscribe at one replica of the
  // owning partition.
  void add_subscriber(Key k, net::Address cache) {
    subscribers_.add(k, cache);
  }
  // Trims the subscriber lists once the setup path is done adding.
  void shrink_subscribers() { subscribers_.shrink_to_fit(); }

 private:
  sim::Task<Buffer> on_get(Buffer req, net::Address from);
  sim::Task<Buffer> on_put(Buffer req, net::Address from);
  sim::Task<Buffer> on_subscribe(Buffer req, net::Address from);
  sim::Task<Buffer> on_unsubscribe(Buffer req, net::Address from);
  void on_gossip(Buffer msg, net::Address from);
  void on_stable_cut(Buffer msg, net::Address from);
  sim::Task<void> gossip_loop();
  sim::Task<void> cut_loop();
  sim::Task<void> push_loop();

  // Merges an item LWW.
  void merge(EvItem item);

  net::RpcNode rpc_;
  uint64_t replica_id_;
  std::vector<net::Address> peers_;
  std::vector<net::Address> all_replicas_;
  EventualStoreParams params_;
  std::unordered_map<Key, EvItem> data_;
  size_t payload_bytes_ = 0;
  // Items accepted locally but not yet gossiped to peers.
  std::vector<EvItem> outbox_;
  // Per-peer coverage: everything the peer accepted before this time has
  // been received here (advanced by gossip batch send timestamps).
  std::unordered_map<net::Address, SimTime> peer_covered_;
  // Per-replica advertised cuts (including our own).
  std::unordered_map<uint64_t, SimTime> advertised_cuts_;
  SimTime global_cut_ = 0;
  SimTime last_gossip_sent_ = 0;
  // Cache notification service.
  SubscriberTable subscribers_;
  std::unordered_set<Key> dirty_;
};

}  // namespace faastcc::storage
