// Wire messages of the FaaS runtime (scheduler, compute nodes, clients).
#pragma once

#include <cstdint>

#include "faas/dag.h"
#include "net/network.h"

namespace faastcc::faas {

enum FaasMethod : uint16_t {
  kStartDag = 60,     // one-way client -> scheduler
  kTrigger = 61,      // one-way scheduler -> node (root), node -> node
  kDagDone = 62,      // one-way sink node -> client
  kAbortNotice = 63,  // one-way aborting node -> downstream nodes
};

// The session blobs below are Payloads, like TriggerMsg's: decoded from a
// shared message buffer they alias the wire bytes, so a HydroCache session
// (tens of KB) is copied only by the encode of each hop.
struct StartDagMsg {
  TxnId txn_id = 0;
  net::Address client = 0;
  Payload session;  // system-specific blob from the client's previous commit
  DagSpec spec;

  template <typename W>
  void encode(W& w) const;
  static StartDagMsg decode(BufReader& r);
};

// Invocation trigger: carries everything a node needs to run one function
// of one DAG execution — the spec, the placement chosen by the scheduler,
// and the parent's context (or the client session for the root).
struct TriggerMsg {
  // from_fn value of a root trigger (sent by the scheduler, no parent).
  static constexpr uint32_t kNoParent = 0xffffffff;

  TxnId txn_id = 0;
  uint32_t fn_index = 0;
  // Parent function that sent this trigger; joins use it to deduplicate
  // the at-least-once fabric (a duplicated parent trigger must not be
  // mistaken for a missing sibling's context).
  uint32_t from_fn = kNoParent;
  net::Address client = 0;
  DagSpec spec;
  std::vector<net::Address> placement;  // node address per function
  // The two metadata-bearing blobs are Payloads: decoded from a shared
  // message buffer they alias the wire bytes in place instead of being
  // copied out (contexts run to tens of KB under HydroCache).
  Payload session;        // root only
  Payload context;        // non-root: parent context
  Buffer parent_result;   // output of the parent function

  template <typename W>
  void encode(W& w) const;
  static TriggerMsg decode(BufReader& r);
};

struct DagDoneMsg {
  TxnId txn_id = 0;
  bool committed = false;
  Payload session;  // valid when committed
  Buffer result;    // sink function output

  template <typename W>
  void encode(W& w) const;
  static DagDoneMsg decode(BufReader& r);
};

struct AbortNoticeMsg {
  TxnId txn_id = 0;

  template <typename W>
  void encode(W& w) const { w.put_u64(txn_id); }
  static AbortNoticeMsg decode(BufReader& r) { return {r.get_u64()}; }
};

template <typename W>
inline void put_buffer(W& w, const Buffer& b) {
  w.put_bytes(
      std::string_view(reinterpret_cast<const char*>(b.data()), b.size()));
}

inline Buffer get_buffer(BufReader& r) {
  const std::string_view s = r.get_bytes_view();
  const auto* p = reinterpret_cast<const uint8_t*>(s.data());
  return Buffer(p, p + s.size());
}

template <typename W>
inline void put_payload(W& w, const Payload& p) {
  w.put_bytes(
      std::string_view(reinterpret_cast<const char*>(p.data()), p.size()));
}

// Reads a length-prefixed blob as a Payload.  With a shared-ownership
// reader the payload aliases the message buffer; otherwise it owns a copy.
inline Payload get_payload(BufReader& r) {
  const std::string_view s = r.get_bytes_view();
  if (s.empty()) return Payload();
  const auto* p = reinterpret_cast<const uint8_t*>(s.data());
  if (const auto& owner = r.owner()) {
    return Payload(owner, p, s.size());
  }
  auto copy = std::make_shared<const Buffer>(p, p + s.size());
  return Payload(copy, copy->data(), copy->size());
}

template <typename W>
inline void StartDagMsg::encode(W& w) const {
  w.put_u64(txn_id);
  w.put_u32(client);
  put_payload(w, session);
  spec.encode(w);
}

inline StartDagMsg StartDagMsg::decode(BufReader& r) {
  StartDagMsg m;
  m.txn_id = r.get_u64();
  m.client = r.get_u32();
  m.session = get_payload(r);
  m.spec = DagSpec::decode(r);
  return m;
}

template <typename W>
inline void TriggerMsg::encode(W& w) const {
  w.put_u64(txn_id);
  w.put_u32(fn_index);
  w.put_u32(from_fn);
  w.put_u32(client);
  spec.encode(w);
  w.put_u32(static_cast<uint32_t>(placement.size()));
  for (net::Address a : placement) w.put_u32(a);
  put_payload(w, session);
  put_payload(w, context);
  put_buffer(w, parent_result);
}

inline TriggerMsg TriggerMsg::decode(BufReader& r) {
  TriggerMsg m;
  m.txn_id = r.get_u64();
  m.fn_index = r.get_u32();
  m.from_fn = r.get_u32();
  m.client = r.get_u32();
  m.spec = DagSpec::decode(r);
  const uint32_t n = r.get_u32();
  m.placement.reserve(n);
  for (uint32_t i = 0; i < n; ++i) m.placement.push_back(r.get_u32());
  m.session = get_payload(r);
  m.context = get_payload(r);
  m.parent_result = get_buffer(r);
  return m;
}

template <typename W>
inline void DagDoneMsg::encode(W& w) const {
  w.put_u64(txn_id);
  w.put_bool(committed);
  put_payload(w, session);
  put_buffer(w, result);
}

inline DagDoneMsg DagDoneMsg::decode(BufReader& r) {
  DagDoneMsg m;
  m.txn_id = r.get_u64();
  m.committed = r.get_bool();
  m.session = get_payload(r);
  m.result = get_buffer(r);
  return m;
}

}  // namespace faastcc::faas
