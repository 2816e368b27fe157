// Per-key cache subscriber sets of a storage partition or replica: one
// slab slot per subscribed key, holding its subscribers' ascending
// addresses as one block shared by content (common/shared_block.h).  Keys
// with equal sets hold one block between them (every prewarmed key holds
// the same one), and pushes visit subscribers in ascending address order.
#pragma once

#include <algorithm>
#include <span>
#include <string_view>
#include <vector>

#include "common/key_table.h"
#include "common/shared_block.h"
#include "net/network.h"

namespace faastcc::storage {

class SubscriberTable {
 public:
  // Adds every cache of `ascending` (strictly ascending) to `k`'s
  // subscribers and calls `on_added` with each one that was new, in
  // ascending order.
  template <typename F>
  void add(Key k, std::span<const net::Address> ascending, F&& on_added) {
    if (ascending.empty()) return;
    const std::span<const net::Address> subs = find(k);
    merged_.clear();
    size_t added = 0;
    auto pos = subs.begin();
    for (net::Address cache : ascending) {
      for (; pos != subs.end() && *pos < cache; ++pos) merged_.push_back(*pos);
      if (pos != subs.end() && *pos == cache) continue;
      merged_.push_back(cache);
      ++added;
      on_added(cache);
    }
    if (added == 0) return;
    merged_.insert(merged_.end(), pos, subs.end());
    *keys_.try_emplace(k).first = block_of(merged_);
  }

  // Removes `cache` from `k`'s subscribers; returns whether it was one.
  bool remove(Key k, net::Address cache) {
    Value* block = keys_.find(k);
    if (block == nullptr) return false;
    const std::span<const net::Address> subs = view(*block);
    const auto pos = std::lower_bound(subs.begin(), subs.end(), cache);
    if (pos == subs.end() || *pos != cache) return false;
    if (subs.size() == 1) {
      keys_.erase(k);
      return true;
    }
    merged_.assign(subs.begin(), pos);
    merged_.insert(merged_.end(), pos + 1, subs.end());
    *block = block_of(merged_);
    return true;
  }

  bool contains(Key k) const { return keys_.contains(k); }

  // `k`'s subscribers in ascending address order; empty when none.  Valid
  // until `k`'s set next changes.
  std::span<const net::Address> find(Key k) const {
    const Value* block = keys_.find(k);
    return block == nullptr ? std::span<const net::Address>() : view(*block);
  }

 private:
  static std::span<const net::Address> view(const Value& block) {
    return {reinterpret_cast<const net::Address*>(block.data()),
            block.size() / sizeof(net::Address)};
  }

  static Value block_of(const std::vector<net::Address>& subs) {
    return shared_block(std::string_view(
        reinterpret_cast<const char*>(subs.data()),
        subs.size() * sizeof(net::Address)));
  }

  KeyTable<Value> keys_;
  // Reused buffer for the set being built.
  std::vector<net::Address> merged_;
};

}  // namespace faastcc::storage
