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

  static constexpr auto kFields =
      std::tuple{&StartDagMsg::txn_id, &StartDagMsg::client,
                 &StartDagMsg::session, &StartDagMsg::spec};
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

  static constexpr auto kFields = std::tuple{
      &TriggerMsg::txn_id,  &TriggerMsg::fn_index, &TriggerMsg::from_fn,
      &TriggerMsg::client,  &TriggerMsg::spec,     &TriggerMsg::placement,
      &TriggerMsg::session, &TriggerMsg::context,  &TriggerMsg::parent_result};
};

struct DagDoneMsg {
  TxnId txn_id = 0;
  bool committed = false;
  Payload session;  // valid when committed
  Buffer result;    // sink function output

  static constexpr auto kFields =
      std::tuple{&DagDoneMsg::txn_id, &DagDoneMsg::committed,
                 &DagDoneMsg::session, &DagDoneMsg::result};
};

struct AbortNoticeMsg {
  TxnId txn_id = 0;

  static constexpr auto kFields = std::tuple{&AbortNoticeMsg::txn_id};
};

}  // namespace faastcc::faas
