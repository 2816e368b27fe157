#include "routing/routing_table.h"

#include <algorithm>
#include <cassert>

namespace faastcc::routing {

std::vector<uint32_t> RoutingTable::slots_of_partition(PartitionId p) const {
  std::vector<uint32_t> out;
  for (uint32_t s = 0; s < slot_owner.size(); ++s) {
    if (slot_owner[s] == p) out.push_back(s);
  }
  return out;
}

RoutingTable RoutingTable::initial(std::vector<PartitionAddress> partitions,
                                   size_t slots_per_partition) {
  assert(!partitions.empty());
  RoutingTable t;
  t.epoch = 1;
  t.partitions = std::move(partitions);
  const size_t n = t.partitions.size();
  // num_slots is a multiple of n and slot s belongs to s mod n, so
  // partition_of(k) = (k mod num_slots) mod n = k mod n: identical to the
  // historical static routing.
  t.slot_owner.resize(n * std::max<size_t>(1, slots_per_partition));
  for (uint32_t s = 0; s < t.slot_owner.size(); ++s) {
    t.slot_owner[s] = mod_partition(s, n);
  }
  return t;
}

RoutingTable RoutingTable::with_partitions_added(
    const std::vector<PartitionAddress>& added) const {
  RoutingTable next = *this;
  next.epoch = epoch + 1;
  const uint32_t old_count = static_cast<uint32_t>(partitions.size());
  for (PartitionAddress a : added) next.partitions.push_back(a);
  // Joiners start unreplicated; a replicated table keeps one replica list
  // per partition so indexes stay aligned.
  if (!next.replicas.empty()) next.replicas.resize(next.partitions.size());
  if (added.empty()) return next;

  const size_t target = next.num_slots() / next.num_partitions();
  std::vector<size_t> load(next.num_partitions(), 0);
  for (uint32_t o : next.slot_owner) ++load[o];

  for (uint32_t joiner = old_count;
       joiner < static_cast<uint32_t>(next.num_partitions()); ++joiner) {
    while (load[joiner] < target) {
      // Steal from the most-loaded incumbent; ties resolve to the lowest
      // partition id so the plan is a pure function of the old table.
      uint32_t victim = 0;
      for (uint32_t p = 1; p < old_count; ++p) {
        if (load[p] > load[victim]) victim = p;
      }
      if (load[victim] <= target) break;  // nothing left worth moving
      // Highest-numbered slot of the victim moves first (deterministic and
      // cheap to find scanning from the top of the ring).
      for (uint32_t s = static_cast<uint32_t>(next.num_slots()); s-- > 0;) {
        if (next.slot_owner[s] == victim) {
          next.slot_owner[s] = joiner;
          --load[victim];
          ++load[joiner];
          break;
        }
      }
    }
  }
  return next;
}

RoutingTable RoutingTable::with_partitions_removed(size_t count) const {
  assert(count < partitions.size());
  RoutingTable next = *this;
  next.epoch = epoch + 1;
  if (count == 0) return next;
  const uint32_t survivors =
      static_cast<uint32_t>(partitions.size() - count);
  next.partitions.resize(survivors);
  if (!next.replicas.empty()) next.replicas.resize(survivors);

  std::vector<size_t> load(survivors, 0);
  for (uint32_t o : next.slot_owner) {
    if (o < survivors) ++load[o];
  }
  // Return each orphaned slot (ascending ring order) to the least-loaded
  // survivor, ties towards the lowest id.  For a table that was grown from
  // a balanced base this hands every slot straight back to the incumbent
  // it was stolen from, so add-then-remove round-trips the assignment.
  for (uint32_t s = 0; s < next.num_slots(); ++s) {
    if (next.slot_owner[s] < survivors) continue;
    uint32_t heir = 0;
    for (uint32_t p = 1; p < survivors; ++p) {
      if (load[p] < load[heir]) heir = p;
    }
    next.slot_owner[s] = heir;
    ++load[heir];
  }
  return next;
}

RoutingTable RoutingTable::with_leader_replaced(
    PartitionId p, PartitionAddress candidate) const {
  assert(p < partitions.size());
  RoutingTable next = *this;
  next.epoch = epoch + 1;
  next.partitions[p] = candidate;
  if (p < next.replicas.size()) {
    auto& reps = next.replicas[p];
    reps.erase(std::remove(reps.begin(), reps.end(), candidate), reps.end());
  }
  return next;
}

RoutingTable RoutingTable::decode(BufReader& r) {
  RoutingTable t;
  t.epoch = r.get_u32();
  t.partitions = decode_from<std::vector<PartitionAddress>>(r);
  t.slot_owner = decode_from<std::vector<uint32_t>>(r);
  // Strict decode: a slot owned by a partition the table does not list
  // is a corrupted or mis-truncated table (e.g. one that survived a
  // shrink with a dangling owner); serving it would route keys to a
  // retired endpoint.
  for (uint32_t o : t.slot_owner) {
    if (o >= t.partitions.size()) {
      throw CodecError("routing table: slot owned by retired partition");
    }
  }
  if (r.remaining() > 0) {
    t.replicas = decode_from<std::vector<std::vector<PartitionAddress>>>(r);
    if (t.replicas.size() != t.partitions.size()) {
      throw CodecError("routing table: replica list count mismatch");
    }
  }
  return t;
}

}  // namespace faastcc::routing
