// HydroCache baseline (Wu et al., SIGMOD'20), as characterised in the
// FaaSTCC paper: a causal caching layer over an eventually consistent
// store.
//
// Reads must assemble a causally consistent cut.  A cached or fetched
// version is admissible iff (a) it is at least as new as the transaction's
// accumulated requirement for its key and (b) none of its dependencies
// demands a newer version of a key the transaction has already read.
// Because the store is a last-writer-wins register (no MVCC), a too-old
// candidate can only be remedied by re-fetching — possibly from another
// replica, possibly after replication catches up — which is the
// multi-round behaviour of §4.1/Fig. 6; and a too-new candidate cannot be
// remedied at all, which aborts the DAG.
//
// Fetched values' dependency lists are kept as metadata-only stubs, the
// "dependencies of the dependencies" whose footprint Fig. 8 measures.
#pragma once

#include "cache/cache_messages.h"
#include "common/key_table.h"
#include "common/metrics.h"
#include "net/rpc.h"
#include "storage/storage_client.h"

namespace faastcc::cache {

struct HydroCacheParams {
  size_t capacity = SIZE_MAX;       // full entries; SIZE_MAX = unbounded
  Duration lookup_cpu = microseconds(8);
  Duration retry_backoff = microseconds(1500);
  int max_rounds = 30;              // per key, before aborting
};

class HydroCache {
 public:
  HydroCache(net::Network& network, net::Address self,
             storage::EvTopology topology, Rng rng, HydroCacheParams params,
             Metrics* metrics, obs::Tracer* tracer = nullptr);

  net::Address address() const { return rpc_.address(); }

  size_t entry_count() const { return entries_.size(); }
  size_t stub_count() const { return stubs_.size(); }
  // Fig. 8 footprint: cached values, their dependency lists, and stubs.
  size_t bytes() const { return bytes_; }
  size_t total_keys() const { return entries_.size() + stubs_.size(); }

  bool has(Key k) const { return entries_.contains(k); }
  std::optional<Key> least_recent() const { return entries_.least_recent(); }

  // Sizes the entry table for a prewarm of `n` keys.
  void reserve(size_t n) { entries_.reserve(n); }

  // Direct insert for experiment pre-warming.
  void prewarm(Key k, Value value, uint64_t counter, SimTime written_at);

  enum class Fit { kOk, kTooOld, kConflict };
  // Validates version `counter` of `key`, stored with `deps`, against the
  // transaction context `ctx`: the shipped map, with this request's own
  // reads and their dependencies in its overlay (see on_read).  kTooOld
  // when the context requires a newer version of `key`; kConflict when a
  // dependency requires a newer version of a key the transaction already
  // read; the first takes precedence.
  static Fit check(const DepMap& ctx, Key key, uint64_t counter,
                   const DepList& deps);

 private:
  struct Entry {
    Value value;
    uint64_t counter = 0;
    SimTime written_at = 0;
    DepList deps;  // one block per distinct list, shared by content

    size_t footprint() const {
      return value.size() + 24 + deps.size() * 24;  // key+version+time
    }
  };
  struct Stub {
    uint64_t counter = 0;
    SimTime written_at = 0;
  };
  static constexpr size_t kStubBytes = 8 + 8 + 8;

  sim::Task<Buffer> on_read(Buffer req, net::Address from);
  void on_push(Buffer msg, net::Address from);

  void insert_entry(Key k, Entry e);
  void insert_stubs(const DepList& deps);
  void evict_to_capacity();

  net::RpcNode rpc_;
  storage::EvStorageClient storage_;
  HydroCacheParams params_;
  Metrics* metrics_;
  obs::Tracer* tracer_ = nullptr;
  // Full entries and metadata-only stubs, each in its own LRU order.
  KeyTable<Entry> entries_;
  KeyTable<Stub> stubs_;
  size_t bytes_ = 0;
};

}  // namespace faastcc::cache
