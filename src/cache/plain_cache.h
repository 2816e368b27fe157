// The baseline Cloudburst cache: an eventually consistent look-aside cache
// with no cross-function guarantees.  Used for the Fig. 11 overhead
// comparison.
#pragma once

#include "cache/cache_messages.h"
#include "common/key_table.h"
#include "common/metrics.h"
#include "net/rpc.h"
#include "storage/storage_client.h"

namespace faastcc::cache {

struct PlainCacheParams {
  size_t capacity = SIZE_MAX;
  Duration lookup_cpu = microseconds(8);
};

class PlainCache {
 public:
  PlainCache(net::Network& network, net::Address self,
             storage::EvTopology topology, Rng rng, PlainCacheParams params,
             Metrics* metrics, obs::Tracer* tracer = nullptr);

  net::Address address() const { return rpc_.address(); }
  size_t entry_count() const { return entries_.size(); }
  size_t bytes() const { return bytes_; }
  bool has(Key k) const { return entries_.contains(k); }
  std::optional<Key> least_recent() const { return entries_.least_recent(); }

  // Sizes the entry table for a prewarm of `n` keys.
  void reserve(size_t n) { entries_.reserve(n); }

  // Direct insert for experiment pre-warming.
  void prewarm(Key k, Value v) {
    if (params_.capacity == 0 || entries_.size() >= params_.capacity) return;
    const size_t size = v.size();
    if (entries_.try_emplace(k, std::move(v)).second) bytes_ += size + 8;
  }

 private:
  sim::Task<Buffer> on_read(Buffer req, net::Address from);
  void on_push(Buffer msg, net::Address from);
  void evict_to_capacity();

  net::RpcNode rpc_;
  storage::EvStorageClient storage_;
  PlainCacheParams params_;
  Metrics* metrics_;
  obs::Tracer* tracer_ = nullptr;
  KeyTable<Value> entries_;  // in LRU order
  size_t bytes_ = 0;
};

}  // namespace faastcc::cache
