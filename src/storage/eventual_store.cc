#include "storage/eventual_store.h"

#include <algorithm>

#include "common/log.h"
#include "sim/future.h"

namespace faastcc::storage {

EvReplica::EvReplica(net::Network& network, net::Address self,
                     uint64_t replica_id, std::vector<net::Address> peers,
                     std::vector<net::Address> all_replicas,
                     EventualStoreParams params)
    : rpc_(network, self),
      replica_id_(replica_id),
      peers_(std::move(peers)),
      all_replicas_(std::move(all_replicas)),
      params_(params) {
  rpc_.handle(kEvGet, [this](Buffer b, net::Address from) {
    return on_get(std::move(b), from);
  });
  rpc_.handle(kEvPut, [this](Buffer b, net::Address from) {
    return on_put(std::move(b), from);
  });
  rpc_.handle_oneway(kEvGossipDigest, [this](Buffer b, net::Address from) {
    on_gossip(std::move(b), from);
  });
  rpc_.handle_oneway(kEvStableCut, [this](Buffer b, net::Address from) {
    on_stable_cut(std::move(b), from);
  });
  rpc_.handle(kEvSubscribe, [this](Buffer b, net::Address from) {
    return on_subscribe(std::move(b), from);
  });
  rpc_.handle(kEvUnsubscribe, [this](Buffer b, net::Address from) {
    return on_unsubscribe(std::move(b), from);
  });
  for (net::Address p : peers_) peer_covered_[p] = 0;
  advertised_cuts_[replica_id_] = 0;
}

void EvReplica::start() {
  sim::spawn(gossip_loop());
  sim::spawn(cut_loop());
  sim::spawn(push_loop());
}

sim::Task<Buffer> EvReplica::on_subscribe(Buffer req, net::Address from) {
  auto q = decode_message<SubscribeReq>(req);
  rpc_.recycle(std::move(req));
  co_await sim::sleep_for(rpc_.loop(), params_.request_cpu);
  for (Key k : q.keys) {
    add_subscribers(k, {&from, 1});
    dirty_.insert(k);  // re-announce the current version on the next push
  }
  co_return Buffer{};
}

sim::Task<Buffer> EvReplica::on_unsubscribe(Buffer req, net::Address from) {
  auto q = decode_message<SubscribeReq>(req);
  rpc_.recycle(std::move(req));
  co_await sim::sleep_for(rpc_.loop(), params_.request_cpu);
  for (Key k : q.keys) subscribers_.remove(k, from);
  co_return Buffer{};
}

sim::Task<void> EvReplica::push_loop() {
  for (;;) {
    co_await sim::sleep_for(rpc_.loop(), params_.push_period);
    if (dirty_.empty()) continue;
    std::unordered_map<net::Address, EvGossipMsg> batches;
    for (Key k : dirty_) {
      const auto subs = subscribers_.find(k);
      if (subs.empty()) continue;
      const EvItem* item = data_.find(k);
      if (item == nullptr) continue;
      for (net::Address sub : subs) batches[sub].items.push_back(*item);
    }
    dirty_.clear();
    for (auto& [addr, batch] : batches) {
      batch.sent_at = rpc_.now();
      rpc_.send(addr, kEvPush, batch);
    }
  }
}

void EvReplica::merge(EvItem item) {
  const Key k = item.key;
  auto [cur, inserted] = data_.try_emplace(k);
  if (!inserted && item.version <= cur->version) return;
  payload_bytes_ -= cur->payload.size();
  payload_bytes_ += item.payload.size();
  if (subscribers_.contains(k)) dirty_.insert(k);
  *cur = std::move(item);
}

sim::Task<Buffer> EvReplica::on_get(Buffer req, net::Address) {
  auto q = decode_message<EvGetReq>(req);
  rpc_.recycle(std::move(req));
  co_await sim::sleep_for(
      rpc_.loop(),
      params_.request_cpu +
          params_.per_key_cpu * static_cast<Duration>(q.keys.size()));
  EvGetResp resp;
  resp.global_cut = global_cut_;
  for (Key k : q.keys) {
    if (const EvItem* item = data_.find(k)) resp.found.push_back(*item);
  }
  co_return rpc_.encode(resp);
}

sim::Task<Buffer> EvReplica::on_put(Buffer req, net::Address) {
  auto q = decode_message<EvPutReq>(req);
  rpc_.recycle(std::move(req));
  co_await sim::sleep_for(
      rpc_.loop(),
      params_.request_cpu +
          params_.per_key_cpu * static_cast<Duration>(q.items.size()));
  EvPutResp resp;
  resp.global_cut = global_cut_;
  for (EvItem& item : q.items) {
    // The replica ensures the assigned counter exceeds the newest version
    // it has seen for the key; clients that track versions (HydroCache)
    // propose a counter reflecting their causal past, others propose 0.
    const EvItem* cur = data_.find(item.key);
    const uint64_t base = cur == nullptr ? 0 : cur->version.counter;
    item.version.counter = std::max(base + 1, item.version.counter);
    item.written_at = rpc_.now();
    resp.versions.push_back(item.version);
    outbox_.push_back(item);
    merge(std::move(item));
  }
  co_return rpc_.encode(resp);
}

void EvReplica::on_gossip(Buffer msg, net::Address from) {
  auto g = decode_message<EvGossipMsg>(msg);
  rpc_.recycle(std::move(msg));
  for (EvItem& item : g.items) {
    merge(std::move(item));
  }
  auto it = peer_covered_.find(from);
  if (it != peer_covered_.end() && g.sent_at > it->second) {
    it->second = g.sent_at;
  }
}

void EvReplica::on_stable_cut(Buffer msg, net::Address) {
  auto m = decode_message<EvStableCutMsg>(msg);
  rpc_.recycle(std::move(msg));
  auto& slot = advertised_cuts_[m.replica];
  if (m.cut > slot) slot = m.cut;
  SimTime min_cut = rpc_.now();
  for (const auto& [replica, cut] : advertised_cuts_) {
    min_cut = std::min(min_cut, cut);
  }
  global_cut_ = std::max(global_cut_, min_cut);
}

sim::Task<void> EvReplica::gossip_loop() {
  for (;;) {
    co_await sim::sleep_for(rpc_.loop(), params_.gossip_period);
    EvGossipMsg g;
    g.sent_at = rpc_.now();
    g.items = outbox_;  // every peer receives the same batch
    outbox_.clear();
    last_gossip_sent_ = g.sent_at;
    for (net::Address p : peers_) rpc_.send(p, kEvGossipDigest, g);
  }
}

sim::Task<void> EvReplica::cut_loop() {
  for (;;) {
    co_await sim::sleep_for(rpc_.loop(), params_.cut_period);
    // Everything accepted anywhere before min(peer coverage) is merged
    // here; our own accepts are covered up to the last gossip broadcast.
    SimTime cut = last_gossip_sent_;
    for (const auto& [peer, covered] : peer_covered_) {
      cut = std::min(cut, covered);
    }
    advertised_cuts_[replica_id_] = std::max(advertised_cuts_[replica_id_], cut);
    EvStableCutMsg m{replica_id_, advertised_cuts_[replica_id_]};
    for (net::Address r : all_replicas_) {
      if (r == rpc_.address()) continue;
      rpc_.send(r, kEvStableCut, m);
    }
    // Refresh our own view of the global minimum.
    SimTime min_cut = rpc_.now();
    for (const auto& [replica, c] : advertised_cuts_) {
      min_cut = std::min(min_cut, c);
    }
    global_cut_ = std::max(global_cut_, min_cut);
  }
}

const EvItem* EvReplica::peek(Key k) const { return data_.find(k); }

}  // namespace faastcc::storage
