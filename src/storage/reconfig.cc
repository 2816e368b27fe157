#include "storage/reconfig.h"

#include <map>
#include <optional>
#include <set>
#include <utility>

#include "common/log.h"

namespace faastcc::storage {

TccPartition* ReconfigEngine::instance(PartitionId p) const {
  for (TccPartition* inst : instances_) {
    if (inst->id() == p) return inst;
  }
  return nullptr;
}

sim::Task<void> ReconfigEngine::scale_out(
    std::vector<routing::PartitionAddress> added) {
  const routing::TablePtr old_table = topo_.table();
  co_await transition_to(
      routing::make_table(old_table->with_partitions_added(added)));
}

sim::Task<void> ReconfigEngine::scale_in(size_t count) {
  const routing::TablePtr old_table = topo_.table();
  if (count == 0 || count >= old_table->num_partitions()) co_return;
  co_await transition_to(
      routing::make_table(old_table->with_partitions_removed(count)));
}

sim::Task<void> ReconfigEngine::transition_to(routing::TablePtr next) {
  const routing::TablePtr prev = topo_.table();
  if (next == nullptr || next->epoch <= prev->epoch) co_return;
  in_flight_ = true;
  const size_t old_n = prev->num_partitions();
  const size_t new_n = next->num_partitions();

  // Which partitions each target takes slots from, and how many slots move
  // per (source, target) pair.  std::map keys give a deterministic handoff
  // order.
  std::map<PartitionId, std::set<PartitionId>> sources_of;
  std::map<std::pair<PartitionId, PartitionId>, size_t> moved;
  for (size_t s = 0; s < next->num_slots(); ++s) {
    const PartitionId to = next->slot_owner[s];
    const PartitionId from = prev->slot_owner[s];
    if (to == from) continue;
    sources_of[to].insert(from);
    ++moved[{from, to}];
  }

  // Arm the targets before the broadcast: join_epoch_ must be in place by
  // the time the first migrate-in parcel (or a stray kTopoUpdate) lands.
  // New ids join; surviving ids that inherit drained slots acquire (their
  // handoff floor is scoped to exactly the keys that migrate in).
  for (size_t t = old_n; t < new_n; ++t) {
    const auto id = static_cast<PartitionId>(t);
    if (TccPartition* inst = instance(id)) {
      inst->begin_join(next, sources_of[id].size());
    } else {
      LOG_WARN("reconfig: no instance for joining partition " << t);
    }
  }
  if (new_n < old_n) {
    for (size_t t = 0; t < new_n; ++t) {
      const auto id = static_cast<PartitionId>(t);
      const auto it = sources_of.find(id);
      if (it == sources_of.end()) continue;
      if (TccPartition* inst = instance(id)) {
        inst->begin_acquire(next, it->second.size());
      }
    }
  }
  topo_.publish(next);
  if (metrics_ != nullptr) {
    metrics_->counter("routing.epoch_bumps").inc();
  }

  // Shepherd each (source, target) handoff: seal + extract the chains at
  // the source, then deliver the parcel to the target.  Both legs retry
  // through the shared commit policy; the source side is idempotent via
  // its replay cache, the target side via per-source dedup.
  for (const auto& [pair, nslots] : moved) {
    (void)nslots;
    const PartitionId src = pair.first;
    const PartitionId tgt = pair.second;
    TccMigrateOutReq oreq;
    oreq.target = tgt;
    std::optional<TccMigrateOutResp> parcel;
    for (int round = 0; round < 8 && !parcel.has_value(); ++round) {
      // Re-resolve the table every attempt: a failover can promote a
      // follower of the source slot (bumping the epoch) while this handoff
      // is in flight, and both the source address and the carried table
      // must follow it — the promoted leader refuses requests stamped with
      // the epoch that still names its dead predecessor.  A source the new
      // table no longer lists (a retiring partition mid-drain) keeps its
      // pre-transition address: the topology service refuses promotion
      // bids for ids beyond the table, so that address can never change.
      const routing::TablePtr cur = topo_.table();
      oreq.table = *cur;
      const net::Address src_addr = src < cur->num_partitions()
                                        ? cur->partitions[src]
                                        : prev->partitions[src];
      auto r = co_await ctl_.call_raw_sized_retry(
          src_addr, kTccMigrateOut, ctl_.encode(oreq),
          net::commit_retry_policy());
      if (!r.ok()) continue;
      auto resp = decode_message<TccMigrateOutResp>(r.payload);
      ctl_.recycle(std::move(r.payload));
      if (resp.ok) parcel = std::move(resp);
    }
    if (!parcel.has_value()) {
      LOG_WARN("reconfig: migrate-out " << src << " -> " << tgt
                                        << " gave up");
      continue;
    }
    TccMigrateInReq ireq;
    ireq.epoch = next->epoch;
    ireq.source = src;
    ireq.expected_sources = static_cast<uint32_t>(sources_of[tgt].size());
    ireq.source_safe = parcel->safe_time;
    ireq.last_heard = std::move(parcel->last_heard);
    ireq.chains = std::move(parcel->chains);
    bool applied = false;
    for (int round = 0; round < 8 && !applied; ++round) {
      auto r = co_await ctl_.call_raw_sized_retry(
          next->partitions[tgt], kTccMigrateIn, ctl_.encode(ireq),
          net::commit_retry_policy());
      if (!r.ok()) continue;
      auto resp = decode_message<TccMigrateInResp>(r.payload);
      ctl_.recycle(std::move(r.payload));
      applied = resp.ok;
    }
    if (!applied) {
      LOG_WARN("reconfig: migrate-in at " << tgt << " from " << src
                                          << " gave up");
    }
  }

  // Retire drained sources the new table no longer lists, and their
  // followers with them (a retired follower must stop bidding for a slot
  // that no longer exists).
  for (size_t p = new_n; p < old_n; ++p) {
    const auto id = static_cast<PartitionId>(p);
    if (TccPartition* inst = instance(id)) inst->retire();
    for (TccPartition* f : followers_) {
      if (f->id() == id) f->retire();
    }
  }
  in_flight_ = false;
}

}  // namespace faastcc::storage
