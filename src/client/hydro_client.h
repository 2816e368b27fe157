// HydroCache client library (baseline).
//
// The DAG context carries the dependency map — every version read plus the
// (level-bounded) dependencies of those versions — and the write set.  For
// static transactions the map is pruned to the declared read/write set
// before shipping downstream, which is the metadata optimization that
// makes HydroCache-Static competitive (§6.3); dynamic transactions must
// ship everything, since "it is impossible to guess which dependencies are
// going to be needed downstream".
#pragma once

#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "cache/cache_messages.h"
#include "client/txn.h"
#include "common/metrics.h"
#include "net/rpc.h"
#include "storage/storage_client.h"

namespace faastcc::client {

struct HydroConfig {
  // Dependencies older than max(global stable cut, now - window) are
  // globally visible and pruned from shipped metadata.
  Duration dep_gc_window = seconds(15);
  // Upper bound on the dependency list stored with a value.
  size_t stored_dep_cap = 512;
};

// Versioned like FaasTccContext: a leading version byte; decode throws
// CodecError on mismatch.
struct HydroContext {
  static constexpr uint8_t kWireVersion = 1;

  cache::DepMap deps;
  uint64_t lamport = 0;  // max version counter observed
  SimTime global_cut = 0;
  std::map<Key, Value> write_set;

  template <typename W>
  void encode(W& w) const {
    encode(w, [this](W& ww) { deps.encode(ww); });
  }
  // The same layout with the dependency block written by put_deps(w):
  // HydroTxn::export_context streams the pruned view of `deps` through it
  // instead of building the pruned map first.
  template <typename W, typename PutDeps>
  void encode(W& w, PutDeps&& put_deps) const {
    w.put_u8(kWireVersion);
    put_deps(w);
    w.put_u64(lamport);
    w.put_i64(global_cut);
    encode_to(w, write_set);
  }
  static HydroContext decode(BufReader& r);
};

class HydroAdapter final : public SystemAdapter {
 public:
  HydroAdapter(net::RpcNode& rpc, net::Address cache_address,
               storage::EvTopology topology, Rng rng, HydroConfig config,
               Metrics* metrics, obs::Tracer* tracer = nullptr);

  std::unique_ptr<FunctionTxn> open(const TxnInfo& info,
                                    std::vector<Payload> parent_contexts,
                                    Payload session) override;

 private:
  friend class HydroTxn;
  net::RpcNode& rpc_;
  net::Address cache_address_;
  storage::EvStorageClient storage_;
  HydroConfig config_;
  Metrics* metrics_;
  obs::Tracer* tracer_ = nullptr;
};

class HydroTxn final : public FunctionTxn {
 public:
  HydroTxn(HydroAdapter& adapter, TxnInfo info, HydroContext context);

  sim::Task<std::optional<std::vector<Value>>> read(
      std::vector<Key> keys) override;
  void write(Key k, Value v) override;
  Buffer export_context() const override;
  size_t metadata_bytes() const override;
  sim::Task<std::optional<Buffer>> commit() override;

 private:
  // Dependencies older than this are globally visible: GC'd from shipped
  // metadata and from the session.
  SimTime gc_horizon() const;
  // Whether entry (k, d) is shipped downstream at `horizon`: not GC'd and,
  // for static transactions, in the declared read/write set.  Read markers
  // are exempt from both (they drive conflict aborts while the transaction
  // runs).
  bool shipped(Key k, const cache::Dep& d, SimTime horizon) const {
    if (d.read) return true;
    return d.written_at >= horizon &&
           (!info_.is_static || relevant_.count(k) != 0);
  }
  HydroAdapter& adapter_;
  TxnInfo info_;
  HydroContext ctx_;
  std::unordered_map<Key, Value> read_set_;
  // Static transactions: the declared read/write set.
  std::unordered_set<Key> relevant_;
  // What the last export_context() shipped, so metadata_bytes() reuses its
  // count instead of rescanning: the entry count, the horizon it was cut
  // at and the oldest non-read entry it kept.  Reset when a read changes
  // the context.
  struct ExportMemo {
    SimTime horizon = 0;
    SimTime oldest_kept = 0;
    size_t entries = 0;
  };
  mutable std::optional<ExportMemo> export_memo_;
};

// Session blob: the client's full accumulated causal past (COPS-style —
// "clients keep track of all versions in their causal past"), bounded only
// by the stable-cut GC.  Read markers are downgraded to validation-only
// requirements (level 2) so one client's history never re-enters stored
// dependency lists wholesale; the client's own writes stay at level 1.
// This asymmetry is what makes function-to-function metadata large
// (Fig. 5) while stored dependency lists stay bounded (Fig. 7).
struct HydroSession {
  uint64_t lamport = 0;
  SimTime global_cut = 0;
  cache::DepMap deps;

  template <typename W>
  void encode(W& w) const {
    encode(w, [this](W& ww) { deps.encode(ww); });
  }
  // Dependency block written by put_deps(w) (see HydroContext::encode).
  template <typename W, typename PutDeps>
  void encode(W& w, PutDeps&& put_deps) const {
    w.put_u64(lamport);
    w.put_i64(global_cut);
    put_deps(w);
  }
  static HydroSession decode(BufReader& r);
};

// The session a commit of `ctx` hands the client, encoded: the context's
// entries written at or after `horizon` as level-2 history, plus the
// transaction's writes at level 1 (written at `now`), where `versions[i]`
// is the installed version of the i-th write-set key (empty on a read-only
// commit).  Streams the sorted context and write set straight into the
// encoding; the session map is never built.
Buffer encode_hydro_session(const HydroContext& ctx, uint64_t lamport,
                            SimTime horizon,
                            const std::vector<storage::EvVersion>& versions,
                            SimTime now);

}  // namespace faastcc::client
