// Cluster topology service: the authoritative holder of the current
// RoutingTable.
//
// One instance per cluster (a real deployment would back this with a
// consensus service; the simulation models the service itself, not its
// replication).  It serves pull requests (kTopoGet) from components that
// discovered they are behind — the wrong-epoch NACK path — and broadcasts
// epoch bumps (kTopoUpdate one-ways) to registered listeners.  Broadcasts
// ride the lossy fabric, so a listener can miss one: correctness never
// depends on the push, only freshness does; the pull path recovers.
#pragma once

#include <memory>
#include <set>
#include <vector>

#include "common/metrics.h"
#include "net/rpc.h"
#include "routing/routing_table.h"

namespace faastcc::routing {

// Method ids (cluster-unique; storage uses 1..16, eventual store 20..26,
// caches 40..,  scheduler/compute 50..).
inline constexpr net::MethodId kTopoGet = 60;
inline constexpr net::MethodId kTopoUpdate = 61;
inline constexpr net::MethodId kTopoPromote = 62;

// Follower -> topology service: bid to take over a slot whose leader's
// lease expired.  Arbitration is first-valid-wins: the bid must name the
// epoch it was decided under and a candidate that is still in that
// partition's replica chain; anything else is a stale bid and is ignored
// (the reply carries the current table either way, so a losing bidder
// adopts whatever the cluster already agreed on).
struct TopoPromoteReq {
  PartitionId partition = 0;
  PartitionAddress candidate = 0;
  uint32_t epoch = 0;

  static constexpr auto kFields =
      std::tuple{&TopoPromoteReq::partition, &TopoPromoteReq::candidate,
                 &TopoPromoteReq::epoch};
};

class TopologyService {
 public:
  TopologyService(net::Network& network, net::Address address,
                  TablePtr initial);

  net::Address address() const { return rpc_.address(); }
  net::RpcNode& rpc() { return rpc_; }
  const TablePtr& table() const { return table_; }

  // Addresses that receive kTopoUpdate one-ways on publish().
  void add_listener(net::Address a) { listeners_.push_back(a); }
  // Optional metrics registry (routing.topo_update_skipped).  Lazy: runs
  // that never retire a listener create no new entries.
  void set_metrics(Metrics* m) { metrics_ = m; }

  // Installs `next` as the current table and broadcasts it.  Listeners
  // retired by a contraction (the dropped tail's leaders and followers)
  // stop receiving broadcasts until a later table names their address
  // again; each skipped send counts into routing.topo_update_skipped.
  void publish(TablePtr next);

 private:
  net::RpcNode rpc_;
  TablePtr table_;
  std::vector<net::Address> listeners_;
  std::set<net::Address> retired_;
  Metrics* metrics_ = nullptr;
};

}  // namespace faastcc::routing
