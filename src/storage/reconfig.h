// Reconfiguration engine: one promise-sound slot-handoff pipeline for
// every routing-table transition.
//
// The engine is parameterized by a target RoutingTable and drives the
// cluster from the currently published table to it:
//
//   1. diff the slot assignments (old vs. next) into per-target source
//      sets and per-(source, target) slot counts;
//   2. arm every target before the broadcast — new partition ids join
//      (begin_join: empty store, all-keys handoff floor), surviving ids
//      that inherit drained slots acquire (begin_acquire: floor scoped to
//      the migrated keys);
//   3. publish the table through the TopologyService;
//   4. shepherd each (source, target) handoff: seal + extract the chains
//      at the source (kTccMigrateOut, idempotent via the source's replay
//      cache), deliver the parcel to the target (kTccMigrateIn,
//      idempotent via per-source dedup);
//   5. retire sources the next table no longer lists (and their
//      followers) once their slots have drained.
//
// Two callers share the pipeline: scale_out (the historical elastic
// path — byte-identical message flow to the pre-engine driver) and
// scale_in (drain the trailing partitions to the survivors).  A leader
// replacement is not a reconfiguration here: the lease-driven promotion
// path publishes it through TopologyService (an empty slot diff).
//
// Promise soundness of a drain is the scale-out argument re-run with the
// survivor standing in for the joiner: the source seals its safe time
// LAST (after extraction), the survivor seeds its clock at
// max(source sealed safes, migrated version timestamps) and never
// commits a migrated key at or below that floor.  Unlike a joiner, a
// survivor was already a member of the contracting cohort, so every
// stable time any cache ever saw is bounded by the survivor's own safe
// time — no new stabilizer barrier is needed (contract_membership drops
// the retired floors, which can only raise the fold).
#pragma once

#include <vector>

#include "common/metrics.h"
#include "common/types.h"
#include "net/rpc.h"
#include "routing/routing_table.h"
#include "routing/topology_service.h"
#include "sim/future.h"
#include "storage/tcc_partition.h"

namespace faastcc::storage {

class ReconfigEngine {
 public:
  // Owns the control endpoint the migration RPCs originate from (no
  // data-plane traffic ever flows through it).
  ReconfigEngine(net::Network& network, net::Address ctl_address,
                 routing::TopologyService& topo, Metrics* metrics)
      : ctl_(network, ctl_address), topo_(topo), metrics_(metrics) {}

  // Instances the engine may arm or retire, looked up by partition id.
  // Registration order is irrelevant; ids are unique among leaders.
  // Followers carry their leader's partition id and retire with it.
  void register_instance(TccPartition* p) { instances_.push_back(p); }
  void register_follower(TccPartition* f) { followers_.push_back(f); }

  // The two callers.  Each computes the target table from the currently
  // published one and runs the shared pipeline.
  sim::Task<void> scale_out(std::vector<routing::PartitionAddress> added);
  sim::Task<void> scale_in(size_t count);

  // The pipeline itself.  No-op unless `next` is strictly newer than the
  // published table.  Returns when every moved slot has drained (or its
  // handoff exhausted the retry budget).
  sim::Task<void> transition_to(routing::TablePtr next);

  size_t active_partitions() const {
    return topo_.table()->num_partitions();
  }
  uint32_t epoch() const { return topo_.table()->epoch; }
  bool transition_in_flight() const { return in_flight_; }

 private:
  TccPartition* instance(PartitionId p) const;

  net::RpcNode ctl_;
  routing::TopologyService& topo_;
  Metrics* metrics_;
  std::vector<TccPartition*> instances_;
  std::vector<TccPartition*> followers_;
  bool in_flight_ = false;
};

}  // namespace faastcc::storage
