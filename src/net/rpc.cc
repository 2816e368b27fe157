#include "net/rpc.h"

#include "common/log.h"

namespace faastcc::net {
namespace {

template <typename H>
void set_handler(std::deque<H>& table, MethodId method, H handler) {
  if (method >= table.size()) table.resize(method + 1);
  table[method] = std::move(handler);
}

template <typename H>
H* find_handler(std::deque<H>& table, MethodId method) {
  return method < table.size() && table[method] ? &table[method] : nullptr;
}

}  // namespace

RpcNode::RpcNode(Network& network, Address address)
    : network_(network), address_(address) {
  network_.register_endpoint(address_,
                             [this](Message m) { on_message(std::move(m)); });
}

void RpcNode::handle(MethodId method, RequestHandler handler) {
  set_handler(handlers_, method, std::move(handler));
}

void RpcNode::handle_oneway(MethodId method, OneWayHandler handler) {
  set_handler(oneway_handlers_, method, std::move(handler));
}

void RpcNode::gate_on_epoch(MethodId method) {
  if (std::find(epoch_gated_.begin(), epoch_gated_.end(), method) ==
      epoch_gated_.end()) {
    epoch_gated_.push_back(method);
  }
}

Duration RpcNode::resolve_timeout(Address to, Duration timeout) const {
  if (timeout != kUseDefaultTimeout) return timeout;
  return network_.is_local(address_, to) ? 0 : network_.default_rpc_timeout();
}

std::optional<RpcNode::Pending> RpcNode::take_pending(uint64_t id) {
  for (Pending& p : pending_) {
    if (p.id != id) continue;
    std::optional<Pending> out(std::move(p));
    if (&p != &pending_.back()) p = std::move(pending_.back());
    pending_.pop_back();
    return out;
  }
  return std::nullopt;
}

sim::Task<RpcNode::SizedResponse> RpcNode::call_raw_sized(
    Address to, MethodId method, Buffer request, Duration timeout,
    obs::TraceContext trace) {
  timeout = resolve_timeout(to, timeout);
  const uint64_t id = next_request_id_++;
  Message m;
  m.from = address_;
  m.to = to;
  m.kind = MessageKind::kRequest;
  m.method = method;
  m.request_id = id;
  m.payload = std::move(request);
  m.trace = trace;
  m.routing_epoch = routing_epoch_;
  const size_t req_bytes = m.wire_size();

  pending_.push_back(
      Pending{id, sim::Promise<SizedResponse>(loop()), req_bytes});
  auto future = pending_.back().promise.get_future();
  network_.send(std::move(m));
  if (timeout > 0) {
    // The timer is scheduled only when a timeout applies, so fault-free
    // runs (default timeout 0) add no events to the schedule.
    loop().schedule_after(timeout, [this, id] { on_call_timeout(id); });
  }
  co_return co_await std::move(future);
}

void RpcNode::on_call_timeout(uint64_t id) {
  std::optional<Pending> p = take_pending(id);
  if (!p) return;  // response already arrived
  network_.note_rpc_timeout();
  SizedResponse r;
  r.request_wire_bytes = p->request_wire_bytes;
  r.status = RpcStatus::kTimeout;
  p->promise.set_value(std::move(r));
}

sim::Task<RpcNode::SizedResponse> RpcNode::call_raw_sized_retry(
    Address to, MethodId method, Buffer request, RetryPolicy policy,
    obs::TraceContext trace) {
  Duration backoff = policy.initial_backoff;
  for (int attempt = 1;; ++attempt) {
    const Duration timeout = resolve_timeout(to, policy.timeout);
    // An attempt that may be re-sent needs its own copy; one that cannot be
    // followed by another sends the original.  The payload is built in a
    // named local: a conditional temporary inside the co_await expression
    // was destroyed twice across the suspension under GCC 12.
    const bool last = timeout <= 0 || attempt >= policy.max_attempts;
    Buffer payload;
    if (last) {
      payload = std::move(request);
    } else {
      payload = request;
    }
    SizedResponse r = co_await call_raw_sized(to, method, std::move(payload),
                                              timeout, trace);
    r.attempts = static_cast<uint32_t>(attempt);
    // Only timeouts are worth re-sending verbatim; a wrong-epoch NACK will
    // keep NACKing until the caller refreshes its routing table.
    if (r.status != RpcStatus::kTimeout || attempt >= policy.max_attempts) {
      co_return r;
    }
    network_.note_rpc_retry();
    co_await sim::sleep_for(loop(), backoff);
    backoff = std::min<Duration>(backoff * 2, policy.max_backoff);
  }
}

sim::Task<std::optional<Buffer>> RpcNode::call_raw_retry(
    Address to, MethodId method, Buffer request, RetryPolicy policy,
    obs::TraceContext trace) {
  SizedResponse r = co_await call_raw_sized_retry(to, method,
                                                  std::move(request), policy,
                                                  trace);
  if (!r.ok()) co_return std::nullopt;
  co_return std::move(r.payload);
}

sim::Task<Buffer> RpcNode::call_raw(Address to, MethodId method,
                                    Buffer request, obs::TraceContext trace) {
  SizedResponse r = co_await call_raw_sized(to, method, std::move(request),
                                            kUseDefaultTimeout, trace);
  co_return std::move(r.payload);
}

void RpcNode::send_raw(Address to, MethodId method, Buffer payload,
                       obs::TraceContext trace) {
  Message m;
  m.from = address_;
  m.to = to;
  m.kind = MessageKind::kOneWay;
  m.method = method;
  m.payload = std::move(payload);
  m.trace = trace;
  m.routing_epoch = routing_epoch_;
  network_.send(std::move(m));
}

sim::Task<void> RpcNode::run_handler(RequestHandler& handler, Message m) {
  Buffer response = co_await handler(std::move(m.payload), m.from);
  Message r;
  r.from = address_;
  r.to = m.from;
  r.kind = MessageKind::kResponse;
  r.method = m.method;
  r.request_id = m.request_id;
  r.payload = std::move(response);
  r.trace = m.trace;  // echo, so responses correlate in packet-level views
  r.routing_epoch = routing_epoch_;
  network_.send(std::move(r));
}

void RpcNode::on_message(Message m) {
  switch (m.kind) {
    case MessageKind::kRequest: {
      if (m.routing_epoch != 0 && routing_epoch_ != 0 &&
          m.routing_epoch != routing_epoch_ &&
          std::find(epoch_gated_.begin(), epoch_gated_.end(), m.method) !=
              epoch_gated_.end()) {
        // The gate sits before dispatch: handlers interleave at co_await
        // points, so admitting a cross-epoch request and checking later
        // would let it observe mid-handoff state.  If the caller is AHEAD
        // of us we missed a bump (e.g. a lost broadcast) — pull a fresh
        // table, but still NACK: the gate never serves across epochs.
        if (m.routing_epoch > routing_epoch_ && stale_epoch_cb_) {
          stale_epoch_cb_();
        }
        recycle(std::move(m.payload));
        Message r;
        r.from = address_;
        r.to = m.from;
        r.kind = MessageKind::kResponse;
        r.method = m.method;
        r.request_id = m.request_id;
        r.trace = m.trace;
        r.routing_epoch = routing_epoch_;
        r.wrong_epoch = true;
        network_.send(std::move(r));
        return;
      }
      RequestHandler* handler = find_handler(handlers_, m.method);
      if (handler == nullptr) {
        LOG_ERROR("no handler for method " << m.method << " at " << address_);
        recycle(std::move(m.payload));
        return;
      }
      // Handlers read this synchronously before their first suspension.
      inbound_trace_ = m.trace;
      sim::spawn(run_handler(*handler, std::move(m)));
      return;
    }
    case MessageKind::kResponse: {
      std::optional<Pending> p = take_pending(m.request_id);
      if (!p) {
        // Either a duplicate delivery or a response that lost the race
        // against its timeout.
        LOG_DEBUG("orphan response at " << address_);
        recycle(std::move(m.payload));
        return;
      }
      const size_t resp_bytes = m.wire_size();
      SizedResponse r;
      r.payload = std::move(m.payload);
      r.request_wire_bytes = p->request_wire_bytes;
      r.response_wire_bytes = resp_bytes;
      r.status = m.wrong_epoch ? RpcStatus::kWrongEpoch : RpcStatus::kOk;
      r.peer_epoch = m.routing_epoch;
      p->promise.set_value(std::move(r));
      return;
    }
    case MessageKind::kOneWay: {
      OneWayHandler* handler = find_handler(oneway_handlers_, m.method);
      if (handler == nullptr) {
        LOG_DEBUG("no one-way handler for method " << m.method);
        recycle(std::move(m.payload));
        return;
      }
      inbound_trace_ = m.trace;
      (*handler)(std::move(m.payload), m.from);
      return;
    }
  }
}

}  // namespace faastcc::net
