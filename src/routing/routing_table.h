// Epoch-versioned key -> partition routing.
//
// A RoutingTable is an immutable snapshot of the cluster's data placement,
// stamped with a monotonically increasing epoch.  Keys hash onto a fixed
// ring of slots (slot = key mod num_slots) and each slot is owned by one
// partition, so adding M partitions to an N-partition cluster remaps only
// the slots handed to the joiners (~ M/(N+M) of the key space) instead of
// reshuffling every key the way plain `key mod N` would.
//
// Epoch 1 is constructed so that slot ownership degenerates to exactly
// `key mod N` (slot s is owned by partition s mod N and num_slots is a
// multiple of N): a cluster that never scales out routes bit-identically
// to the historical modulo scheme.
//
// Tables are shared immutably (TablePtr): every layer holds a snapshot and
// swaps the pointer on an epoch bump, so a request batch is always grouped
// under one consistent epoch.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/serialize.h"
#include "common/types.h"

namespace faastcc::routing {

// Address of a partition endpoint (mirrors net::Address without pulling the
// network layer into this header).
using PartitionAddress = uint32_t;

// The shared modulo helper: the single definition of "key k maps to index
// i of n" used by both the slot ring and the eventually consistent store's
// replica groups.
inline uint32_t mod_partition(Key k, size_t n) {
  return static_cast<uint32_t>(k % static_cast<uint64_t>(n));
}

struct RoutingTable {
  // Slots per partition at epoch 1.  Eight gives a joiner reasonably even
  // steals from the incumbents while keeping the table tiny on the wire.
  static constexpr size_t kDefaultSlotsPerPartition = 8;

  uint32_t epoch = 1;
  // slot_owner[s] = index into `partitions` of the slot's owner.
  std::vector<uint32_t> slot_owner;
  std::vector<PartitionAddress> partitions;
  // Per-slot replica chain: replicas[p] lists the follower endpoints
  // backing leader partitions[p], in promotion-preference order.  Empty
  // outer vector = replication disabled; when non-empty it has exactly
  // one (possibly empty) entry per partition.
  std::vector<std::vector<PartitionAddress>> replicas;

  size_t num_slots() const { return slot_owner.size(); }
  size_t num_partitions() const { return partitions.size(); }

  bool replicated() const { return !replicas.empty(); }
  const std::vector<PartitionAddress>& replicas_of(PartitionId p) const {
    static const std::vector<PartitionAddress> kNone;
    return p < replicas.size() ? replicas[p] : kNone;
  }

  uint32_t slot_of(Key k) const { return mod_partition(k, num_slots()); }
  PartitionId partition_of(Key k) const { return slot_owner[slot_of(k)]; }
  PartitionAddress address_of(Key k) const {
    return partitions[partition_of(k)];
  }

  // Slots currently owned by `p`, in ring order.
  std::vector<uint32_t> slots_of_partition(PartitionId p) const;

  // Epoch-1 table whose routing is exactly `key mod partitions.size()`.
  static RoutingTable initial(std::vector<PartitionAddress> partitions,
                              size_t slots_per_partition =
                                  kDefaultSlotsPerPartition);

  // Next-epoch table with `added` appended as new partitions.  Slots are
  // stolen deterministically from the most-loaded incumbents (ties broken
  // towards the lowest partition id, highest-numbered slot moves first)
  // until every joiner owns floor(num_slots / new_count) slots.  Existing
  // slot assignments are otherwise untouched, so only the stolen slots'
  // keys change owner.
  RoutingTable with_partitions_added(
      const std::vector<PartitionAddress>& added) const;

  // Next-epoch table with the trailing `count` partitions retired (scale
  // IN).  Survivor ids are untouched — only the tail leaves, so no chain
  // that stays put changes owner.  The retirees' slots are returned
  // deterministically: ascending slot order, each slot to the currently
  // least-loaded survivor (ties towards the lowest partition id), which
  // exactly inverts `with_partitions_added` for balanced bases — adding M
  // partitions to an epoch-1 table and then removing them yields the
  // original assignment modulo epoch.  Retired replica chains are dropped
  // with their leader.
  RoutingTable with_partitions_removed(size_t count) const;

  // Next-epoch table promoting `candidate` (a member of replicas[p]) to
  // leader of partition p: partitions[p] becomes the candidate's address
  // and the candidate leaves the replica chain.  The dead leader is not
  // re-added — a revived endpoint rejoins only via backfill + a future
  // table, never implicitly.
  RoutingTable with_leader_replaced(PartitionId p,
                                    PartitionAddress candidate) const;

  // Wire codec (the topology service serves and broadcasts tables).  The
  // replica section is a trailing optional block so an unreplicated table
  // stays byte-identical to the pre-replication encoding; decode detects
  // it by the reader having bytes left, which is why every message that
  // embeds a table places it last.  Hand codec: decode validates slot
  // owners against the partition list.
  template <typename W>
  void encode(W& w) const {
    w.put_u32(epoch);
    encode_to(w, partitions);
    encode_to(w, slot_owner);
    if (!replicas.empty()) encode_to(w, replicas);
  }
  static RoutingTable decode(BufReader& r);
};

using TablePtr = std::shared_ptr<const RoutingTable>;

inline TablePtr make_table(RoutingTable t) {
  return std::make_shared<const RoutingTable>(std::move(t));
}

}  // namespace faastcc::routing
