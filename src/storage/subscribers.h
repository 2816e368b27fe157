// Per-key cache subscriber lists of a storage partition or replica: one
// slab slot per subscribed key, holding its subscribers as a sorted vector
// so pushes visit them in ascending address order.
#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "common/key_table.h"
#include "net/network.h"

namespace faastcc::storage {

class SubscriberTable {
 public:
  // Adds every cache of `ascending` (strictly ascending) to `k`'s
  // subscribers and calls `on_added` with each one that was new, in
  // ascending order.  An absent key's list is allocated once, at its size.
  template <typename F>
  void add(Key k, std::span<const net::Address> ascending, F&& on_added) {
    if (ascending.empty()) return;
    std::vector<net::Address>& subs = *keys_.try_emplace(k).first;
    if (subs.empty()) subs.reserve(ascending.size());
    auto pos = subs.begin();
    for (net::Address cache : ascending) {
      pos = std::lower_bound(pos, subs.end(), cache);
      if (pos != subs.end() && *pos == cache) continue;
      pos = subs.insert(pos, cache);
      on_added(cache);
    }
  }

  // Removes `cache` from `k`'s subscribers; returns whether it was one.
  bool remove(Key k, net::Address cache) {
    std::vector<net::Address>* subs = keys_.find(k);
    if (subs == nullptr) return false;
    const auto pos = std::lower_bound(subs->begin(), subs->end(), cache);
    if (pos == subs->end() || *pos != cache) return false;
    subs->erase(pos);
    if (subs->empty()) keys_.erase(k);
    return true;
  }

  bool contains(Key k) const { return keys_.contains(k); }

  // `k`'s subscribers in ascending address order; nullptr when none.
  const std::vector<net::Address>* find(Key k) const { return keys_.find(k); }

 private:
  KeyTable<std::vector<net::Address>> keys_;
};

}  // namespace faastcc::storage
