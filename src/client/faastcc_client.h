// The FaaSTCC client library (paper §4.4-§4.8, Alg. 1).
//
// Keeps the DAG context — snapshot interval, write set and causal lower
// bound — plus the per-function read set.  Reads go through the node's
// FaaSTCC cache; the snapshot interval narrows with every accepted
// version; the sink commits the write set to the TCC storage layer.
#pragma once

#include <map>
#include <unordered_map>

#include "cache/cache_messages.h"
#include "check/history.h"
#include "client/snapshot_interval.h"
#include "client/txn.h"
#include "common/metrics.h"
#include "net/rpc.h"
#include "storage/storage_client.h"

namespace faastcc::client {

struct FaasTccConfig {
  // Fig. 3 ablation switches.  The full system uses both.
  bool use_promises = true;
  // When false, the first read fixes a single snapshot for the rest of
  // the DAG instead of keeping a lazily narrowed interval.
  bool use_interval = true;
  // §7 extension: Snapshot Isolation.  Commits run first-committer-wins
  // write-write conflict detection against the transaction's read
  // snapshot (interval.high); a conflicting DAG aborts and is retried by
  // the client.  Lost updates on read-modify-write cycles become
  // impossible; the price is the conflict-abort rate under contention.
  bool snapshot_isolation = false;
  // Topology-service endpoint (0 = static routing).  When set, the
  // adapter's commit client can pull a fresh routing table after a
  // wrong-epoch NACK or a newer epoch carried in by the DAG context.
  net::Address topo_service = 0;
  // Chaos knob (tests/fuzzer only): skip the library-local write-set and
  // read-set lookups so every read goes to the cache, violating
  // read-your-writes and repeatable reads for the oracle to catch.
  bool chaos_skip_local_reads = false;
};

// Context passed from function to function: Alg. 1's `context`.
// The wire encoding is versioned: a leading version byte guards against
// silent misparsing when future fields are added; decode throws CodecError
// on a version it does not understand.  Hand codec: the version tag
// selects the layout.
struct FaasTccContext {
  static constexpr uint8_t kWireVersion = 1;
  // Version 2 prepends the routing epoch observed by the DAG so far.  It
  // is emitted only once a bump has actually been observed (epoch > 1):
  // runs that never scale out ship byte-identical v1 contexts, keeping
  // schedules and the metadata-bytes metric unchanged.
  static constexpr uint8_t kWireVersionEpoch = 2;

  SnapshotInterval interval;
  Timestamp dep_ts = Timestamp::min();  // session/write causal lower bound
  bool snapshot_fixed = false;          // fixed-snapshot ablation state
  std::map<Key, Value> write_set;       // ordered => deterministic encoding
  // Newest routing epoch any function in the DAG observed from its cache
  // (0 = none observed / pre-elastic).  The sink compares it against its
  // commit client's table and refreshes before committing, instead of
  // burning a guaranteed wrong-epoch NACK round.
  uint32_t routing_epoch = 0;

  template <typename W>
  void encode(W& w) const {
    if (routing_epoch > 1) {
      w.put_u8(kWireVersionEpoch);
      w.put_u32(routing_epoch);
    } else {
      w.put_u8(kWireVersion);
    }
    encode_to(w, interval);
    encode_to(w, dep_ts);
    w.put_bool(snapshot_fixed);
    encode_to(w, write_set);
  }
  static FaasTccContext decode(BufReader& r);
};

class FaasTccAdapter final : public SystemAdapter {
 public:
  FaasTccAdapter(net::RpcNode& rpc, net::Address cache_address,
                 storage::TccTopology topology, FaasTccConfig config,
                 Metrics* metrics, obs::Tracer* tracer = nullptr,
                 check::HistorySink* oracle = nullptr);

  std::unique_ptr<FunctionTxn> open(const TxnInfo& info,
                                    std::vector<Payload> parent_contexts,
                                    Payload session) override;

 private:
  friend class FaasTccTxn;
  net::RpcNode& rpc_;
  net::Address cache_address_;
  storage::TccStorageClient storage_;
  FaasTccConfig config_;
  Metrics* metrics_;
  obs::Tracer* tracer_;
  check::HistorySink* oracle_;
};

class FaasTccTxn final : public FunctionTxn {
 public:
  FaasTccTxn(FaasTccAdapter& adapter, TxnInfo info, FaasTccContext context)
      : adapter_(adapter),
        info_(std::move(info)),
        ctx_(std::move(context)),
        fn_id_(adapter.oracle_ != nullptr
                   ? adapter.oracle_->register_function(info_.txn_id)
                   : 0) {}

  sim::Task<std::optional<std::vector<Value>>> read(
      std::vector<Key> keys) override;
  void write(Key k, Value v) override;
  Buffer export_context() const override;
  size_t metadata_bytes() const override;
  sim::Task<std::optional<Buffer>> commit() override;

  const SnapshotInterval& interval() const { return ctx_.interval; }

 private:
  FaasTccAdapter& adapter_;
  TxnInfo info_;
  FaasTccContext ctx_;
  // Deterministic per-function id for the oracle's read-your-writes /
  // repeatable-reads bookkeeping (0 when no oracle is attached).
  uint64_t fn_id_;
  // Library-local copy of values read while executing on this worker
  // (Alg. 1 line 16); not part of the shipped context.
  std::unordered_map<Key, Value> read_set_;
};

// Session blob: the commit timestamp of the client's previous transaction
// (write-after-write session ordering).
Buffer encode_faastcc_session(Timestamp commit_ts);
Timestamp decode_faastcc_session(const Buffer& b);
Timestamp decode_faastcc_session(const Payload& p);

}  // namespace faastcc::client
