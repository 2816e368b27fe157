#include "net/network.h"

#include <cassert>
#include <new>
#include <utility>

#include "common/log.h"
#include "sim/frame_pool.h"

namespace faastcc::net {
namespace {

uint64_t link_key(Address from, Address to) {
  return (static_cast<uint64_t>(from) << 32) | to;
}

}  // namespace

Network::Endpoint& Network::endpoint(Address a) {
  if (a >= slot_.size()) slot_.resize(a + 1, 0);
  if (slot_[a] == 0) {
    endpoints_.emplace_back();
    slot_[a] = static_cast<uint32_t>(endpoints_.size());
  }
  return endpoints_[slot_[a] - 1];
}

void Network::register_endpoint(Address addr, Handler handler) {
  Endpoint& e = endpoint(addr);
  assert(!e.handler && "endpoint registered twice");
  e.handler = std::move(handler);
}

void Network::colocate(Address a, Address b) {
  if (is_local(a, b)) return;
  endpoint(a).peers.push_back(b);
  endpoint(b).peers.push_back(a);
}

void Network::set_faults(FaultParams faults, Rng fault_rng) {
  faults_enabled_ = true;
  faults_ = std::move(faults);
  fault_rng_ = fault_rng;
  default_rpc_timeout_ = faults_.rpc_timeout;
}

void Network::set_link_loss(Address from, Address to, double p) {
  if (p < 0) {
    link_loss_.erase(link_key(from, to));
  } else {
    link_loss_[link_key(from, to)] = p;
  }
}

double Network::link_loss(Address from, Address to) const {
  auto it = link_loss_.find(link_key(from, to));
  return it != link_loss_.end() ? it->second : faults_.loss_prob;
}

bool Network::crashed_at(Address a, SimTime t) const {
  for (const CrashWindow& w : faults_.crashes) {
    if (w.addr == a && t >= w.from && t < w.until) return true;
  }
  return false;
}

Duration Network::delivery_delay(Address from, Address to, size_t bytes) {
  if (is_local(from, to)) {
    return params_.local_delivery;
  }
  const auto serialization = static_cast<Duration>(
      static_cast<double>(bytes) / params_.bandwidth_bytes_per_us);
  const Duration jitter =
      params_.jitter > 0
          ? static_cast<Duration>(rng_.next_below(
                static_cast<uint64_t>(params_.jitter)))
          : 0;
  return params_.base_latency + jitter + serialization;
}

void Network::deliver(Message m, Duration delay) {
  void* mem = sim::FramePool::allocate(sizeof(InFlight));
  auto* f = new (mem) InFlight{this, std::move(m)};
  loop_.schedule_raw_after(delay, &Network::run_in_flight,
                           &Network::drop_in_flight, f);
}

void Network::run_in_flight(void* ctx) {
  auto* f = static_cast<InFlight*>(ctx);
  Network* net = f->net;
  Message m = std::move(f->m);
  // The record goes back before the handler runs, so the handler's own
  // sends reuse it.
  drop_in_flight(f);
  net->arrive(std::move(m));
}

void Network::drop_in_flight(void* ctx) {
  auto* f = static_cast<InFlight*>(ctx);
  f->~InFlight();
  sim::FramePool::deallocate(f, sizeof(InFlight));
}

void Network::arrive(Message m) {
  if (faults_enabled_ && crashed_at(m.to, loop_.now())) {
    // Receiver is down at delivery time: the message is lost, even over
    // IPC (a crashed process receives nothing).
    faults_crash_dropped_.inc();
    loop_.buffer_pool().release(std::move(m.payload));
    return;
  }
  const Endpoint* e = find(m.to);
  if (e == nullptr || !e->handler) {
    messages_dropped_.inc();
    LOG_DEBUG("dropping message to unregistered address " << m.to);
    loop_.buffer_pool().release(std::move(m.payload));
    return;
  }
  e->handler(std::move(m));
}

void Network::send(Message m) {
  messages_sent_.inc();
  bytes_sent_.inc(m.wire_size());
  if (faults_enabled_) {
    if (crashed_at(m.from, loop_.now())) {
      faults_crash_dropped_.inc();
      return;
    }
    // Loss, duplication and spikes model the shared fabric; same-node IPC
    // is a memory queue and stays reliable.
    if (!is_local(m.from, m.to)) {
      const double loss = link_loss(m.from, m.to);
      if (loss > 0 && fault_rng_.next_bool(loss)) {
        faults_lost_.inc();
        loop_.buffer_pool().release(std::move(m.payload));
        return;
      }
      Duration extra = 0;
      if (faults_.delay_spike_prob > 0 &&
          fault_rng_.next_bool(faults_.delay_spike_prob)) {
        faults_delay_spikes_.inc();
        extra = faults_.delay_spike;
      }
      const bool dup =
          faults_.dup_prob > 0 && fault_rng_.next_bool(faults_.dup_prob);
      if (dup) {
        faults_duplicated_.inc();
        Message copy = m;
        // The copy draws its own jitter, so the two deliveries interleave
        // arbitrarily with other traffic.
        const Duration copy_delay =
            delivery_delay(copy.from, copy.to, copy.wire_size()) + extra;
        deliver(std::move(copy), copy_delay);
      }
      const Duration delay =
          delivery_delay(m.from, m.to, m.wire_size()) + extra;
      deliver(std::move(m), delay);
      return;
    }
  }
  const Duration delay = delivery_delay(m.from, m.to, m.wire_size());
  deliver(std::move(m), delay);
}

}  // namespace faastcc::net
