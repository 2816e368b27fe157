// A recency-ordered key set: the caches' LRU bookkeeping without a payload,
// on the same slab table the caches keep their entries in (the caches use
// KeyTable directly; this view serves tests and the layer probes).
// The paper uses LRU replacement for the bounded-cache experiment (§6.7);
// the cache algorithms themselves are replacement-policy agnostic (§4.3).
#pragma once

#include <optional>

#include "common/key_table.h"

namespace faastcc::cache {

class LruIndex {
 public:
  // Inserts `k` as most-recently-used, or moves it there if present.
  void touch(Key k) {
    if (!keys_.try_emplace(k).second) keys_.touch(k);
  }

  void erase(Key k) { keys_.erase(k); }

  // The least-recently-used key, if any.
  std::optional<Key> least_recent() const { return keys_.least_recent(); }

  bool contains(Key k) const { return keys_.contains(k); }
  size_t size() const { return keys_.size(); }

 private:
  struct Empty {};
  KeyTable<Empty> keys_;
};

}  // namespace faastcc::cache
