// Simulated cluster network.
//
// Models the paper's testbed fabric: ~0.15 ms intra-cluster RTT over shared
// 25 Gbps switches.  A message sent at time t is delivered at
//   t + base_latency + U(0, jitter) + size / bandwidth.
// Delivery order between distinct pairs is therefore not FIFO globally,
// which is exactly the asynchrony the protocols must tolerate.
//
// An optional fault-injection layer (set_faults) subjects fabric links to
// message loss, duplication, delay spikes and endpoint crash windows.  All
// fault randomness comes from a dedicated forked Rng, installed only when
// faults are enabled, so fault-free runs consume exactly the same random
// stream — and produce exactly the same schedule — as before the fault
// layer existed.
//
// Each message in flight is one pooled InFlight record scheduled on the
// event loop as a typed event (no boxed closure), and an address finds its
// endpoint and colocated peers through a flat address-indexed vector, so a
// delivery makes no global allocation in steady state.  Addresses are
// small integers (a few thousand), which keeps that vector small.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "common/types.h"
#include "obs/trace.h"
#include "sim/event_loop.h"

namespace faastcc::net {

using Address = uint32_t;
using MethodId = uint16_t;

enum class MessageKind : uint8_t { kRequest = 0, kResponse = 1, kOneWay = 2 };

struct Message {
  Address from = 0;
  Address to = 0;
  MessageKind kind = MessageKind::kOneWay;
  MethodId method = 0;
  uint64_t request_id = 0;
  Buffer payload;
  // Trace context, riding inside the fixed frame header like a W3C
  // traceparent field.  Deliberately NOT part of wire_size(): delivery
  // delays must be identical whether tracing is on or off, or enabling
  // tracing would perturb the event schedule.
  obs::TraceContext trace;
  // Routing epoch the sender's table was at, stamped by RpcNode.  Budgeted
  // inside the fixed kHeaderBytes frame (it would fit several times over),
  // so like `trace` it is not part of wire_size() and a cluster that never
  // bumps epochs schedules bit-identically to one without the field.
  // 0 = the sender does not participate in epoch-versioned routing.
  uint32_t routing_epoch = 0;
  // Response-only flag: the request's epoch disagreed with the receiver's
  // for an epoch-gated method.  The payload is empty; routing_epoch above
  // carries the receiver's epoch so the caller knows who is behind.
  bool wrong_epoch = false;

  // Wire size: payload plus a fixed header, mirroring the framing overhead
  // of the ZeroMQ + protobuf stack in the authors' prototype.
  static constexpr size_t kHeaderBytes = 32;
  size_t wire_size() const { return payload.size() + kHeaderBytes; }
};

struct NetworkParams {
  Duration base_latency = microseconds(75);   // one-way; RTT ~= 0.15 ms
  Duration jitter = microseconds(20);         // uniform [0, jitter)
  double bandwidth_bytes_per_us = 3125.0;     // 25 Gbps
  Duration local_delivery = microseconds(5);  // same-node IPC latency
};

// An endpoint severed from the network during [from, until): inbound and
// outbound messages are dropped, process state is retained (a partition /
// pause, not amnesia — the process resumes where it left off).
struct CrashWindow {
  Address addr = 0;
  SimTime from = 0;
  SimTime until = 0;  // exclusive
};

struct FaultParams {
  double loss_prob = 0.0;         // per fabric message
  double dup_prob = 0.0;          // extra copy with its own delivery delay
  double delay_spike_prob = 0.0;  // adds `delay_spike` to the delivery
  Duration delay_spike = milliseconds(10);
  // RPC timeout applied by RpcNode to non-colocated calls once faults are
  // enabled (0 = never time out).  Colocated (IPC) calls never time out:
  // loss/dup/spikes only affect fabric links.
  Duration rpc_timeout = milliseconds(25);
  // Client-side watchdog for a whole DAG execution; the DAG flow is one-way
  // messages, so a lost trigger is only recoverable by retrying the DAG.
  Duration dag_timeout = seconds(1);
  std::vector<CrashWindow> crashes;

  bool enabled() const {
    return loss_prob > 0 || dup_prob > 0 || delay_spike_prob > 0 ||
           !crashes.empty();
  }
};

class Network {
 public:
  Network(sim::EventLoop& loop, NetworkParams params, Rng rng)
      : loop_(loop), params_(params), rng_(rng), fault_rng_(0) {}

  using Handler = std::function<void(Message)>;

  // Each simulated process registers exactly one inbound handler.
  void register_endpoint(Address addr, Handler handler);

  // Marks two addresses as colocated on the same physical node; messages
  // between them use IPC latency instead of the fabric (executor <-> cache).
  // The relation is pairwise and symmetric, not transitive.
  void colocate(Address a, Address b);

  bool is_local(Address a, Address b) const {
    if (a == b) return true;
    const Endpoint* e = find(a);
    if (e == nullptr) return false;
    for (const Address p : e->peers) {
      if (p == b) return true;
    }
    return false;
  }

  // Queues `m` for delivery; the recipient's handler runs at delivery time.
  // Messages to unregistered addresses are counted and dropped.
  void send(Message m);

  // Enables fault injection.  `fault_rng` must be a dedicated fork so the
  // fault layer's draws never perturb the base jitter stream.
  void set_faults(FaultParams faults, Rng fault_rng);
  bool faults_enabled() const { return faults_enabled_; }

  // Per-link loss override (directional); takes effect only while faults
  // are enabled.  Probability -1 removes the override.
  void set_link_loss(Address from, Address to, double p);

  // Dynamically extend the crash schedule (tests, mid-run fault scripts).
  // Arms the fault layer so the window takes effect even when set_faults
  // was never called; deliberately leaves default_rpc_timeout_ alone — a
  // crash window severs an endpoint, it does not opt every RPC into
  // timeouts.  Determinism is preserved: with all fault probabilities at
  // zero the fault layer draws nothing from fault_rng_, so the schedule
  // outside the window is bit-identical to the unfaulted run.
  void add_crash_window(CrashWindow w) {
    faults_.crashes.push_back(w);
    faults_enabled_ = true;
  }

  // Default timeout RpcNode applies to non-colocated calls (0 = none).
  Duration default_rpc_timeout() const { return default_rpc_timeout_; }
  void set_default_rpc_timeout(Duration t) { default_rpc_timeout_ = t; }

  bool crashed_at(Address a, SimTime t) const;

  SimTime now() const { return loop_.now(); }
  sim::EventLoop& loop() { return loop_; }

  uint64_t messages_sent() const { return messages_sent_.value(); }
  uint64_t bytes_sent() const { return bytes_sent_.value(); }
  uint64_t messages_dropped() const { return messages_dropped_.value(); }

  // Fault counters (all zero when faults are disabled).
  uint64_t faults_lost() const { return faults_lost_.value(); }
  uint64_t faults_duplicated() const { return faults_duplicated_.value(); }
  uint64_t faults_delay_spikes() const { return faults_delay_spikes_.value(); }
  uint64_t faults_crash_dropped() const {
    return faults_crash_dropped_.value();
  }

  // RPC timeout/retry accounting lives here because every RpcNode already
  // holds a Network reference; Metrics copies these at the end of a run.
  void note_rpc_timeout() { rpc_timeouts_.inc(); }
  void note_rpc_retry() { rpc_retries_.inc(); }
  uint64_t rpc_timeouts() const { return rpc_timeouts_.value(); }
  uint64_t rpc_retries() const { return rpc_retries_.value(); }

 private:
  Duration delivery_delay(Address from, Address to, size_t bytes);
  double link_loss(Address from, Address to) const;
  void deliver(Message m, Duration delay);
  void arrive(Message m);

  // What the network knows about one address.  An address gets one when
  // it registers a handler or is colocated, whichever comes first.
  struct Endpoint {
    Handler handler;              // empty: nothing registered
    std::vector<Address> peers;  // colocated addresses
  };
  const Endpoint* find(Address a) const {
    return a < slot_.size() && slot_[a] != 0 ? &endpoints_[slot_[a] - 1]
                                             : nullptr;
  }
  Endpoint& endpoint(Address a);

  // One message in flight: a typed event record from sim::FramePool.
  struct InFlight {
    Network* net;
    Message m;
  };
  static void run_in_flight(void* ctx);
  static void drop_in_flight(void* ctx);

  sim::EventLoop& loop_;
  NetworkParams params_;
  Rng rng_;
  // slot_[address] is 1 + the address's index in endpoints_ (0: none).
  // A deque, so adding an endpoint from inside a running handler never
  // moves that handler.
  std::vector<uint32_t> slot_;
  std::deque<Endpoint> endpoints_;
  Counter messages_sent_;
  Counter bytes_sent_;
  Counter messages_dropped_;

  bool faults_enabled_ = false;
  FaultParams faults_;
  Rng fault_rng_;
  Duration default_rpc_timeout_ = 0;
  std::unordered_map<uint64_t, double> link_loss_;  // directional (from, to)
  Counter faults_lost_;
  Counter faults_duplicated_;
  Counter faults_delay_spikes_;
  Counter faults_crash_dropped_;
  Counter rpc_timeouts_;
  Counter rpc_retries_;
};

}  // namespace faastcc::net
