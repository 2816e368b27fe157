// Tree-aggregated stabilization: property tests for the k-ary safe-time
// aggregation tree (stabilization_topology=tree) and the O(1) stable-time
// tournament tree, plus small-cluster checks of the tree gossip round's
// message budget and the push frame under faults.
//
// The lossy-channel harness here models exactly what the simulator's
// network can do to tree traffic — loss, duplication, bounded reordering
// delay — and, for the elastic test, the real system's epoch-bump order:
// the handoff source adopts the new membership when it seals (migrate-out
// adopts the carried table), everyone else learns from membership tags.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "common/rng.h"
#include "harness/run_spec.h"
#include "storage/stabilizer.h"

namespace faastcc::storage {
namespace {

Timestamp ts(uint64_t us) { return Timestamp(us, 0, 0); }

// ---------------------------------------------------------------------------
// Tree shape
// ---------------------------------------------------------------------------

TEST(StabilizerTree, ShapeIsConsistentAcrossSizesAndFanouts) {
  for (uint32_t fanout : {1u, 2u, 3u, 4u, 7u}) {
    for (size_t n : {1u, 2u, 5u, 16u, 33u}) {
      for (PartitionId i = 0; i < n; ++i) {
        Stabilizer s(i, n, StabTopology::kTree, fanout);
        if (i == 0) {
          EXPECT_TRUE(s.is_root());
        } else {
          EXPECT_FALSE(s.is_root());
          // My parent's child list contains me.
          Stabilizer parent(s.parent(), n, StabTopology::kTree, fanout);
          bool found = false;
          for (size_t c = 0; c < parent.num_children(); ++c) {
            if (parent.child(c) == i) found = true;
          }
          EXPECT_TRUE(found) << "n=" << n << " fanout=" << fanout
                             << " node=" << i;
        }
        // Every child is a valid member and points back at me.
        for (size_t c = 0; c < s.num_children(); ++c) {
          ASSERT_LT(s.child(c), n);
          Stabilizer child(s.child(c), n, StabTopology::kTree, fanout);
          EXPECT_EQ(child.parent(), i);
        }
      }
    }
  }
}

TEST(StabilizerTree, GrowthOnlyAppendsEdges) {
  // parent(i) = (i-1)/k depends only on i: growing membership must not
  // re-parent anyone, only add children.
  for (size_t before : {3u, 7u}) {
    for (size_t after : {8u, 13u}) {
      for (PartitionId i = 1; i < before; ++i) {
        Stabilizer small(i, before, StabTopology::kTree, 2);
        Stabilizer big(i, after, StabTopology::kTree, 2);
        EXPECT_EQ(small.parent(), big.parent());
        EXPECT_LE(small.num_children(), big.num_children());
        for (size_t c = 0; c < small.num_children(); ++c) {
          EXPECT_EQ(small.child(c), big.child(c));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// O(1) stable time == exact min (tournament tree vs reference scan)
// ---------------------------------------------------------------------------

TEST(StabilizerTree, MinTreeMatchesReferenceScanUnderFuzz) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(0x51ab1e00 + seed);
    size_t n = 1 + rng.next_below(9);
    Stabilizer s(0, n);
    for (int step = 0; step < 400; ++step) {
      if (rng.next_below(20) == 0) {
        n += 1 + rng.next_below(3);
        s.extend_membership(n);
      } else {
        const PartitionId from = static_cast<PartitionId>(rng.next_below(n));
        s.on_gossip(from, ts(1 + rng.next_below(1000)));
      }
      const auto& heard = s.last_heard_all();
      ASSERT_EQ(heard.size(), n);
      const Timestamp expect = *std::min_element(heard.begin(), heard.end());
      ASSERT_EQ(s.stable_time(), expect) << "seed=" << seed
                                         << " step=" << step;
    }
  }
}

// ---------------------------------------------------------------------------
// Lossy-channel aggregation harness
// ---------------------------------------------------------------------------

struct TreeMsg {
  enum Kind { kUp, kDown } kind;
  PartitionId dest;
  PartitionId child;      // kUp only
  uint32_t membership;
  Timestamp value;
  int due_round;
};

struct TreeCell {
  std::vector<Stabilizer> nodes;
  std::vector<uint64_t> safe;  // each member's current published safe (µs)
  std::deque<TreeMsg> wire;
  Rng rng;
  double loss = 0, dup = 0;
  int max_delay = 0;
  int round = 0;

  TreeCell(size_t n, uint32_t fanout, uint64_t seed) : rng(seed) {
    for (PartitionId i = 0; i < n; ++i) {
      nodes.emplace_back(i, n, StabTopology::kTree, fanout);
      safe.push_back(1 + i);
    }
  }

  void post(TreeMsg m) {
    if (rng.next_double() < loss) return;
    m.due_round =
        round + static_cast<int>(rng.next_below(max_delay + 1));
    wire.push_back(m);
    if (rng.next_double() < dup) {
      TreeMsg copy = m;
      copy.due_round =
          round + static_cast<int>(rng.next_below(max_delay + 1));
      wire.push_back(copy);
    }
  }

  void deliver_due() {
    const size_t pending = wire.size();
    for (size_t k = 0; k < pending; ++k) {
      TreeMsg m = wire.front();
      wire.pop_front();
      if (m.due_round > round) {
        wire.push_back(m);  // not yet: requeue (models reordering too)
        continue;
      }
      if (m.dest >= nodes.size()) continue;
      if (m.kind == TreeMsg::kUp) {
        nodes[m.dest].on_child_report(m.child, m.membership, m.value);
      } else {
        nodes[m.dest].on_stable_broadcast(m.membership, m.value);
      }
    }
  }

  // One gossip beat, mirroring TccPartition::tree_gossip_round.
  void run_round(bool advance_safes) {
    ++round;
    deliver_due();
    for (PartitionId i = 0; i < nodes.size(); ++i) {
      if (advance_safes) safe[i] += rng.next_below(40);
      Stabilizer& s = nodes[i];
      s.on_gossip(i, ts(safe[i]));
      const auto tag = static_cast<uint32_t>(s.num_partitions());
      const Timestamp fold = s.fold_subtree_min(ts(safe[i]));
      if (s.is_root()) {
        s.on_stable_broadcast(tag, fold);
      } else {
        post({TreeMsg::kUp, s.parent(), i, tag, fold, 0});
      }
      for (size_t c = 0; c < s.num_children(); ++c) {
        post({TreeMsg::kDown, s.child(c), 0, tag, s.stable_time(), 0});
      }
    }
  }

  Timestamp exact_min() const {
    uint64_t m = safe[0];
    for (uint64_t v : safe) m = std::min(m, v);
    return ts(m);
  }
};

TEST(StabilizerTree, NeverExceedsExactMinUnderLossDupDelay) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    for (uint32_t fanout : {2u, 4u}) {
      TreeCell cell(13, fanout, 0xdead0000 + seed);
      cell.loss = 0.15;
      cell.dup = 0.10;
      cell.max_delay = 3;
      std::vector<Timestamp> prev(cell.nodes.size(), Timestamp::min());
      for (int r = 0; r < 120; ++r) {
        cell.run_round(/*advance_safes=*/true);
        const Timestamp bound = cell.exact_min();
        for (size_t i = 0; i < cell.nodes.size(); ++i) {
          const Timestamp st = cell.nodes[i].stable_time();
          // Safety: a fold is a min over past published values of every
          // member, each <= that member's current value.
          ASSERT_LE(st, bound) << "seed=" << seed << " node=" << i;
          // Monotone per node.
          ASSERT_GE(st, prev[i]);
          prev[i] = st;
        }
      }
      // Liveness: freeze safes, stop losing messages, drain.
      cell.loss = 0;
      cell.dup = 0;
      cell.max_delay = 0;
      for (int r = 0; r < 40; ++r) cell.run_round(/*advance_safes=*/false);
      for (const Stabilizer& s : cell.nodes) {
        EXPECT_EQ(s.stable_time(), cell.exact_min());
      }
    }
  }
}

TEST(StabilizerTree, MidRoundEpochBumpKeepsStableSound) {
  // Membership grows mid-run with messages in flight.  The real system's
  // order: the handoff source seals its safe time (the joiners' floor),
  // adopts the new membership immediately (migrate-out carries the table),
  // joiners start at the floor; every other member keeps running with the
  // old view until a membership tag reaches it.
  for (uint64_t seed = 0; seed < 6; ++seed) {
    TreeCell cell(7, 2, 0xe1a57100 + seed);
    cell.loss = 0.10;
    cell.dup = 0.05;
    cell.max_delay = 2;
    constexpr size_t kFinal = 11;
    std::vector<Timestamp> prev(kFinal, Timestamp::min());
    for (int r = 0; r < 140; ++r) {
      if (r == 50) {
        // Seal: the floor dominates every published safe, like a handoff
        // floor seeded from the source's sealed safe time.
        uint64_t floor = 0;
        for (uint64_t v : cell.safe) floor = std::max(floor, v);
        for (PartitionId i = cell.nodes.size(); i < kFinal; ++i) {
          cell.nodes.emplace_back(i, kFinal, StabTopology::kTree, 2u);
          cell.safe.push_back(floor);
        }
        // The source (pick node 1, an interior node) adopts at seal time.
        cell.nodes[1].extend_membership(kFinal);
      }
      cell.run_round(/*advance_safes=*/true);
      const Timestamp bound = cell.exact_min();
      for (size_t i = 0; i < cell.nodes.size(); ++i) {
        const Timestamp st = cell.nodes[i].stable_time();
        ASSERT_LE(st, bound) << "seed=" << seed << " node=" << i
                             << " round=" << r;
        ASSERT_GE(st, prev[i]);
        prev[i] = st;
      }
    }
    // Post-bump convergence: everyone adopted the new membership purely
    // from tags, and the stable converged to the 11-member min.
    cell.loss = 0;
    cell.dup = 0;
    cell.max_delay = 0;
    for (int r = 0; r < 40; ++r) cell.run_round(/*advance_safes=*/false);
    for (const Stabilizer& s : cell.nodes) {
      EXPECT_EQ(s.num_partitions(), kFinal);
      EXPECT_EQ(s.stable_time(), cell.exact_min());
    }
  }
}

TEST(StabilizerTree, StaleMembershipReportsAreDroppedAndCounted) {
  Stabilizer s(0, 5, StabTopology::kTree, 2);  // root, children 1 and 2
  EXPECT_TRUE(s.on_child_report(1, 5, ts(40)));
  s.extend_membership(7);
  // In-flight fold over the old membership: omits members 5 and 6.
  EXPECT_FALSE(s.on_child_report(1, 5, ts(90)));
  EXPECT_EQ(s.stale_drops(), 1u);
  EXPECT_EQ(s.drops(Stabilizer::DropReason::kStaleReportTag), 1u);
  EXPECT_EQ(s.last_drop_reason(), Stabilizer::DropReason::kStaleReportTag);
  // The barrier re-armed: the pre-bump report no longer counts.
  s.on_gossip(0, ts(100));
  EXPECT_EQ(s.fold_subtree_min(ts(100)), Timestamp::min());
  // A new-membership report is accepted again.
  EXPECT_TRUE(s.on_child_report(1, 7, ts(95)));
  // Broadcasts are tag-checked the same way.
  EXPECT_FALSE(s.on_stable_broadcast(5, ts(90)));
  EXPECT_EQ(s.stale_drops(), 2u);
  EXPECT_EQ(s.drops(Stabilizer::DropReason::kStaleBroadcastTag), 1u);
  // A report from outside this node's fanout is its own reason.
  EXPECT_FALSE(s.on_child_report(4, 7, ts(95)));
  EXPECT_EQ(s.drops(Stabilizer::DropReason::kForeignChild), 1u);
  EXPECT_EQ(s.last_drop_reason(), Stabilizer::DropReason::kForeignChild);
  EXPECT_EQ(s.stale_drops(), 3u);
}

TEST(StabilizerTree, LargerTagAdoptsMembershipBeforeAccepting) {
  Stabilizer s(1, 3, StabTopology::kTree, 2);  // children 3, 4 once they exist
  EXPECT_EQ(s.num_children(), 0u);
  // A child report proves membership grew to 6: adopt, then accept.
  EXPECT_TRUE(s.on_child_report(3, 6, ts(25)));
  EXPECT_EQ(s.num_partitions(), 6u);
  EXPECT_EQ(s.num_children(), 2u);
  EXPECT_EQ(s.fold_subtree_min(ts(100)), Timestamp::min());  // child 4 unheard
  EXPECT_TRUE(s.on_child_report(4, 6, ts(30)));
  EXPECT_EQ(s.fold_subtree_min(ts(100)), ts(25));
}

// ---------------------------------------------------------------------------
// Small live clusters: message budget and pushes under faults
// ---------------------------------------------------------------------------

harness::RunOutput run_spec_text(const std::string& text) {
  return harness::run_one(harness::spec_from_text(text));
}

TEST(StabilizerTree, TreeClusterGossipBudgetIsLinear) {
  // p64 tree cell: per partition-round the tree sends at most one SafeUp
  // and fanout StableDowns, and cell-wide exactly 2(P-1) per beat — the
  // aggregate must stay under 2 messages per partition-round.  (The mesh
  // sends P-1 = 63.)
  const auto out = run_spec_text(R"({
    "system": "faastcc", "seed": 7,
    "cluster": {"partitions": 64, "compute_nodes": 2, "clients": 4,
                "dags_per_client": 30},
    "run": {"check_consistency": true},
    "tcc": {"stabilization_topology": "tree", "tree_fanout": 4}})");
  EXPECT_EQ(out.violations, 0u);
  const Counter* rounds = out.result.metrics.find_counter("stab.gossip_rounds");
  const Counter* msgs = out.result.metrics.find_counter("stab.gossip_msgs");
  ASSERT_NE(rounds, nullptr);
  ASSERT_NE(msgs, nullptr);
  ASSERT_GT(rounds->value(), 0u);
  EXPECT_LE(msgs->value(), 2 * rounds->value());
}

TEST(StabilizerTree, MeshAndTreeAgreeOnCommittedWork) {
  const char* base = R"({
    "system": "faastcc", "seed": 11,
    "cluster": {"partitions": 8, "compute_nodes": 2, "clients": 4,
                "dags_per_client": 40},
    "run": {"check_consistency": true}%s})";
  char mesh_spec[512], tree_spec[512];
  std::snprintf(mesh_spec, sizeof(mesh_spec), base, "");
  std::snprintf(tree_spec, sizeof(tree_spec), base,
                R"(, "tcc": {"stabilization_topology": "tree",
                             "tree_fanout": 2})");
  const auto mesh = run_spec_text(mesh_spec);
  const auto tree = run_spec_text(tree_spec);
  // Same workload commits either way; the topology only changes freshness.
  EXPECT_EQ(mesh.violations, 0u);
  EXPECT_EQ(tree.violations, 0u);
  EXPECT_EQ(mesh.result.committed, tree.result.committed);
  // Tree maintenance traffic is strictly below mesh at this size.
  const Counter* mm = mesh.result.metrics.find_counter("stab.gossip_msgs");
  const Counter* tm = tree.result.metrics.find_counter("stab.gossip_msgs");
  ASSERT_NE(mm, nullptr);
  ASSERT_NE(tm, nullptr);
  EXPECT_LT(tm->value(), mm->value());
}

TEST(StabilizerTree, CoalescedPushesStayOracleCleanUnderFaults) {
  const auto out = run_spec_text(R"({
    "system": "faastcc", "seed": 3, "config": "tree-lossy",
    "cluster": {"partitions": 6, "compute_nodes": 2, "clients": 4,
                "dags_per_client": 40},
    "run": {"check_consistency": true}})");
  EXPECT_EQ(out.violations, 0u) << out.violation_kind;
  EXPECT_GT(out.result.committed, 0u);
}

}  // namespace
}  // namespace faastcc::storage
