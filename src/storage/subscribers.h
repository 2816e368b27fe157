// Per-key cache subscriber lists of a storage partition or replica: one
// slab slot per subscribed key, holding its subscribers as a sorted vector
// so pushes visit them in ascending address order.
#pragma once

#include <algorithm>
#include <vector>

#include "common/key_table.h"
#include "net/network.h"

namespace faastcc::storage {

class SubscriberTable {
 public:
  // Adds `cache` to `k`'s subscribers; returns whether it was new.
  bool add(Key k, net::Address cache) {
    std::vector<net::Address>& subs = *keys_.try_emplace(k).first;
    const auto pos = std::lower_bound(subs.begin(), subs.end(), cache);
    if (pos != subs.end() && *pos == cache) return false;
    subs.insert(pos, cache);
    return true;
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

  // Trims every list to its size.  A list built one add at a time (the
  // prewarm path) otherwise keeps up to twice the capacity it needs.
  void shrink_to_fit() {
    keys_.for_each([](Key, std::vector<net::Address>& subs) {
      subs.shrink_to_fit();
    });
  }

 private:
  KeyTable<std::vector<net::Address>> keys_;
};

}  // namespace faastcc::storage
