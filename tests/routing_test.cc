// Unit tests for the epoch-versioned routing layer: the slot table's
// epoch-1 modulo equivalence, deterministic slot stealing on scale-out,
// and the wire codec.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>

#include "routing/routing_table.h"

namespace faastcc::routing {
namespace {

std::vector<PartitionAddress> addrs(size_t n, PartitionAddress base = 100) {
  std::vector<PartitionAddress> out;
  for (size_t i = 0; i < n; ++i) out.push_back(base + i);
  return out;
}

TEST(ModPartition, MatchesPlainModulo) {
  for (Key k = 0; k < 1000; ++k) {
    for (size_t n : {1u, 3u, 16u, 24u}) {
      EXPECT_EQ(mod_partition(k, n), k % n);
    }
  }
}

TEST(RoutingTable, EpochOneRoutesExactlyLikeModulo) {
  for (size_t n : {1u, 4u, 16u}) {
    const RoutingTable t = RoutingTable::initial(addrs(n));
    EXPECT_EQ(t.epoch, 1u);
    EXPECT_EQ(t.num_partitions(), n);
    EXPECT_EQ(t.num_slots() % n, 0u);
    for (Key k = 0; k < 5000; ++k) {
      EXPECT_EQ(t.partition_of(k), k % n);
      EXPECT_EQ(t.address_of(k), 100 + k % n);
    }
  }
}

TEST(RoutingTable, ScaleOutBumpsEpochAndRemapsOnlyStolenSlots) {
  const RoutingTable old_t = RoutingTable::initial(addrs(16));
  const RoutingTable new_t = old_t.with_partitions_added(addrs(8, 200));
  EXPECT_EQ(new_t.epoch, 2u);
  EXPECT_EQ(new_t.num_partitions(), 24u);
  EXPECT_EQ(new_t.num_slots(), old_t.num_slots());

  // Every slot either kept its owner or moved to a joiner — an incumbent
  // never takes a slot from another incumbent.
  size_t moved = 0;
  for (size_t s = 0; s < new_t.num_slots(); ++s) {
    if (new_t.slot_owner[s] == old_t.slot_owner[s]) continue;
    EXPECT_GE(new_t.slot_owner[s], 16u);
    ++moved;
  }
  // Joiners get floor(num_slots / new_count) slots each.
  const size_t per_joiner = new_t.num_slots() / 24;
  EXPECT_EQ(moved, 8 * per_joiner);
  std::map<uint32_t, size_t> owned;
  for (uint32_t o : new_t.slot_owner) ++owned[o];
  for (uint32_t j = 16; j < 24; ++j) EXPECT_EQ(owned[j], per_joiner);
  // Only ~ M/(N+M) of the key space remaps (the whole point of slots).
  size_t remapped_keys = 0;
  const Key probe = 10000;
  for (Key k = 0; k < probe; ++k) {
    if (new_t.partition_of(k) != old_t.partition_of(k)) ++remapped_keys;
  }
  EXPECT_NEAR(static_cast<double>(remapped_keys) / probe, 8.0 / 24.0, 0.05);
}

TEST(RoutingTable, ScaleOutIsDeterministic) {
  const RoutingTable old_t = RoutingTable::initial(addrs(5));
  const RoutingTable a = old_t.with_partitions_added(addrs(3, 300));
  const RoutingTable b = old_t.with_partitions_added(addrs(3, 300));
  EXPECT_EQ(a.slot_owner, b.slot_owner);
  EXPECT_EQ(a.partitions, b.partitions);
}

TEST(RoutingTable, SlotsOfPartitionInvertsSlotOwner) {
  const RoutingTable t =
      RoutingTable::initial(addrs(4)).with_partitions_added(addrs(2, 200));
  size_t total = 0;
  for (PartitionId p = 0; p < t.num_partitions(); ++p) {
    for (uint32_t s : t.slots_of_partition(p)) {
      EXPECT_EQ(t.slot_owner[s], p);
      ++total;
    }
  }
  EXPECT_EQ(total, t.num_slots());
}

TEST(RoutingTable, CodecRoundTripsAndSizeHintIsExact) {
  const RoutingTable t =
      RoutingTable::initial(addrs(6)).with_partitions_added(addrs(2, 200));
  BufWriter w;
  t.encode(w);
  const Buffer b = w.take();
  EXPECT_EQ(b.size(), encoded_size(t));
  BufReader r(b);
  const RoutingTable d = RoutingTable::decode(r);
  EXPECT_EQ(d.epoch, t.epoch);
  EXPECT_EQ(d.partitions, t.partitions);
  EXPECT_EQ(d.slot_owner, t.slot_owner);
}

TEST(RoutingTable, ReplicaCodecIsTrailingOptionalAndRoundTrips) {
  RoutingTable plain = RoutingTable::initial(addrs(4));
  BufWriter w0;
  plain.encode(w0);
  const Buffer b0 = w0.take();
  EXPECT_EQ(b0.size(), encoded_size(plain));

  RoutingTable t = plain;
  t.replicas = {{6000, 6001}, {6004}, {}, {6012}};
  BufWriter w;
  t.encode(w);
  const Buffer b = w.take();
  EXPECT_EQ(b.size(), encoded_size(t));
  // The replicated encoding is a strict extension: the unreplicated prefix
  // is byte-identical, so pre-replication decoders and checksums are
  // unaffected by tables that never carry replicas.
  ASSERT_GT(b.size(), b0.size());
  EXPECT_EQ(std::memcmp(b.data(), b0.data(), b0.size()), 0);

  BufReader r(b);
  const RoutingTable d = RoutingTable::decode(r);
  EXPECT_TRUE(d.replicated());
  EXPECT_EQ(d.replicas, t.replicas);
  EXPECT_EQ(d.replicas_of(0),
            (std::vector<PartitionAddress>{6000, 6001}));
  EXPECT_TRUE(d.replicas_of(2).empty());
  EXPECT_TRUE(d.replicas_of(99).empty());  // out of range -> no chain

  BufReader r0(b0);
  EXPECT_FALSE(RoutingTable::decode(r0).replicated());
}

TEST(RoutingTable, ScaleInRetiresTrailingPartitionsOnly) {
  const RoutingTable old_t =
      RoutingTable::initial(addrs(6)).with_partitions_added(addrs(2, 200));
  const RoutingTable new_t = old_t.with_partitions_removed(2);
  EXPECT_EQ(new_t.epoch, old_t.epoch + 1);
  EXPECT_EQ(new_t.num_partitions(), 6u);
  EXPECT_EQ(new_t.num_slots(), old_t.num_slots());
  EXPECT_EQ(new_t.partitions,
            std::vector<PartitionAddress>(old_t.partitions.begin(),
                                          old_t.partitions.begin() + 6));
  // Survivor-owned slots never move; retirees' slots land on survivors.
  for (size_t s = 0; s < new_t.num_slots(); ++s) {
    if (old_t.slot_owner[s] < 6) {
      EXPECT_EQ(new_t.slot_owner[s], old_t.slot_owner[s]) << "slot " << s;
    } else {
      EXPECT_LT(new_t.slot_owner[s], 6u) << "slot " << s;
    }
  }
  // Deterministic: same input, same output.
  EXPECT_EQ(new_t.slot_owner, old_t.with_partitions_removed(2).slot_owner);
}

TEST(RoutingTable, AddThenRemoveRestoresOriginalOwnership) {
  // Draining the joiners exactly inverts the steal: the original (balanced,
  // epoch-1) assignment returns, two epochs later.
  for (size_t n : {3u, 4u, 16u}) {
    for (size_t m : {1u, 2u, 5u}) {
      const RoutingTable base = RoutingTable::initial(addrs(n));
      const RoutingTable out = base.with_partitions_added(addrs(m, 500));
      const RoutingTable back = out.with_partitions_removed(m);
      EXPECT_EQ(back.slot_owner, base.slot_owner) << n << "+" << m;
      EXPECT_EQ(back.partitions, base.partitions) << n << "+" << m;
      EXPECT_EQ(back.epoch, base.epoch + 2) << n << "+" << m;
    }
  }
}

TEST(RoutingTable, ScaleInCodecRoundTripsReplicatedAndNot) {
  RoutingTable t =
      RoutingTable::initial(addrs(5)).with_partitions_removed(2);
  BufWriter w;
  t.encode(w);
  const Buffer b = w.take();
  EXPECT_EQ(b.size(), encoded_size(t));
  BufReader r(b);
  const RoutingTable d = RoutingTable::decode(r);
  EXPECT_EQ(d.epoch, t.epoch);
  EXPECT_EQ(d.partitions, t.partitions);
  EXPECT_EQ(d.slot_owner, t.slot_owner);
  EXPECT_FALSE(d.replicated());

  RoutingTable rt = RoutingTable::initial(addrs(4));
  rt.replicas = {{6000}, {6004}, {6008}, {6012}};
  const RoutingTable shrunk = rt.with_partitions_removed(1);
  ASSERT_TRUE(shrunk.replicated());
  EXPECT_EQ(shrunk.replicas.size(), 3u);  // retiree's chain dropped with it
  BufWriter w2;
  shrunk.encode(w2);
  const Buffer b2 = w2.take();
  EXPECT_EQ(b2.size(), encoded_size(shrunk));
  BufReader r2(b2);
  const RoutingTable d2 = RoutingTable::decode(r2);
  EXPECT_EQ(d2.replicas, shrunk.replicas);
  EXPECT_EQ(d2.slot_owner, shrunk.slot_owner);
}

TEST(RoutingTable, StrictDecodeRejectsRetiredOwnersAndBadReplicaCount) {
  // A table whose slot ring still references a retired partition id is
  // corrupt: it can route a key to an owner with no address.
  RoutingTable bad = RoutingTable::initial(addrs(4));
  bad.slot_owner[3] = 7;  // beyond num_partitions
  BufWriter w;
  bad.encode(w);
  const Buffer b = w.take();
  BufReader r(b);
  EXPECT_THROW(RoutingTable::decode(r), CodecError);

  // Replica block with the wrong number of chains (e.g. pre-shrink chains
  // glued onto a post-shrink partition list).
  RoutingTable mismatched = RoutingTable::initial(addrs(3));
  mismatched.replicas = {{6000}, {6004}};  // 2 chains for 3 partitions
  BufWriter w2;
  mismatched.encode(w2);
  const Buffer b2 = w2.take();
  BufReader r2(b2);
  EXPECT_THROW(RoutingTable::decode(r2), CodecError);
}

TEST(RoutingTable, WithLeaderReplacedPromotesAndRetiresDeadLeader) {
  RoutingTable t = RoutingTable::initial(addrs(3));
  t.replicas = {{6000, 6001}, {6004, 6005}, {6008}};
  const PartitionAddress dead = t.partitions[1];
  const RoutingTable n = t.with_leader_replaced(1, 6004);
  EXPECT_EQ(n.epoch, t.epoch + 1);
  EXPECT_EQ(n.partitions[1], 6004u);
  // The candidate left the chain; the dead leader is NOT re-added — a
  // revived endpoint rejoins only via backfill plus a future table.
  EXPECT_EQ(n.replicas[1], (std::vector<PartitionAddress>{6005}));
  for (const auto& reps : n.replicas) {
    EXPECT_EQ(std::count(reps.begin(), reps.end(), dead), 0);
  }
  // A promotion changes the slot's address, never its owner id: every key
  // still maps to the same partition id.
  EXPECT_EQ(n.slot_owner, t.slot_owner);
  EXPECT_EQ(n.replicas[0], t.replicas[0]);
  EXPECT_EQ(n.replicas[2], t.replicas[2]);
}

}  // namespace
}  // namespace faastcc::routing
