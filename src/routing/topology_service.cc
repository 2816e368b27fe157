#include "routing/topology_service.h"

#include <algorithm>
#include <cassert>

namespace faastcc::routing {

TopologyService::TopologyService(net::Network& network, net::Address address,
                                 TablePtr initial)
    : rpc_(network, address), table_(std::move(initial)) {
  assert(table_ != nullptr);
  rpc_.handle(kTopoGet,
              [this](Buffer req, net::Address) -> sim::Task<Buffer> {
                rpc_.recycle(std::move(req));
                co_return rpc_.encode(*table_);
              });
  rpc_.handle(kTopoPromote,
              [this](Buffer req, net::Address) -> sim::Task<Buffer> {
                const auto q = decode_message<TopoPromoteReq>(req);
                rpc_.recycle(std::move(req));
                // First valid bid per epoch wins; a bid against any other
                // epoch lost a race it can learn about from the reply.
                if (q.epoch == table_->epoch &&
                    q.partition < table_->num_partitions()) {
                  const auto& reps = table_->replicas_of(q.partition);
                  if (std::find(reps.begin(), reps.end(), q.candidate) !=
                      reps.end()) {
                    publish(make_table(
                        table_->with_leader_replaced(q.partition,
                                                     q.candidate)));
                  }
                }
                co_return rpc_.encode(*table_);
              });
}

void TopologyService::set_gauges() {
  if (metrics_ == nullptr) return;
  auto& epoch = metrics_->counter("routing.epoch");
  epoch.reset();
  epoch.inc(table_->epoch);
  auto& active = metrics_->counter("routing.active_partitions");
  active.reset();
  active.inc(table_->num_partitions());
}

void TopologyService::publish(TablePtr next) {
  assert(next != nullptr && next->epoch > table_->epoch);
  const TablePtr old = table_;
  table_ = std::move(next);
  set_gauges();
  if (table_->num_partitions() < old->num_partitions()) {
    // Contraction: the dropped tail's leaders and followers leave the
    // broadcast set.  Skipping is shrink-only on purpose — a leader
    // replaced by a failover keeps receiving updates (a revived deposed
    // leader must learn it was deposed from exactly this channel).
    for (size_t p = table_->num_partitions(); p < old->num_partitions();
         ++p) {
      retired_.insert(old->partitions[p]);
      if (p < old->replicas.size()) {
        for (PartitionAddress f : old->replicas[p]) retired_.insert(f);
      }
    }
  }
  if (!retired_.empty()) {
    // Any address the new table names again (a re-joined instance) is live.
    for (PartitionAddress a : table_->partitions) retired_.erase(a);
    for (const auto& reps : table_->replicas) {
      for (PartitionAddress f : reps) retired_.erase(f);
    }
  }
  for (net::Address a : listeners_) {
    if (retired_.count(a) != 0) {
      if (metrics_ != nullptr) {
        metrics_->counter("routing.topo_update_skipped").inc();
      }
      continue;
    }
    rpc_.send(a, kTopoUpdate, *table_);
  }
}

}  // namespace faastcc::routing
