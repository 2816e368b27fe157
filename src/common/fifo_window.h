// A bounded FIFO dedup window: the last `cap` distinct keys inserted, each
// with a value, the oldest evicted first.  Behind the scheduler's started
// transactions, the compute nodes' executed (txn, fn) pairs and aborted
// transactions, and the partitions' resolved transactions.
//
// Entries sit in a ring in insertion order; the ring grows to `cap`
// entries and then overwrites its oldest entry in place.  The probing
// index of common/probe_index.h finds a ring position by key.  An entry
// therefore costs its key and value plus about two u32 index words, with
// no per-entry heap node.  Re-inserting a present key keeps its place in
// the order.  A window of capacity 0 remembers nothing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/probe_index.h"

namespace faastcc {

// Value type of a window that only remembers keys.
struct NoValue {};

template <typename K, typename V = NoValue, typename Hash = std::hash<K>>
class FifoWindow {
 public:
  explicit FifoWindow(size_t cap) : cap_(cap) {}

  size_t size() const { return ring_.size(); }
  bool contains(const K& k) const { return pos_of(k) != kNoPos; }

  // `k`'s value, or nullptr.  Valid until the next insert.
  V* find(const K& k) {
    const size_t pos = pos_of(k);
    return pos == kNoPos ? nullptr : &ring_[index_.slot_at(pos)].value;
  }

  // Remembers `k` with value `v` as the newest entry, evicting the oldest
  // when the window is full.  A present key keeps its value and its place.
  // Returns the key's value (the caller may update it), or nullptr when
  // the capacity is 0.
  V* insert(const K& k, V v = V()) {
    if (cap_ == 0) return nullptr;
    if (const size_t pos = pos_of(k); pos != kNoPos) {
      return &ring_[index_.slot_at(pos)].value;
    }
    uint32_t s = oldest_;
    if (ring_.size() < cap_) {
      if (index_.full_for(ring_.size())) grow();
      s = static_cast<uint32_t>(ring_.size());
      ring_.push_back(Entry{k, std::move(v)});
    } else {
      const size_t pos =
          index_.find(hash(ring_[s].key), [s](uint32_t e) { return e == s; });
      index_.erase_at(pos, [this](uint32_t e) { return hash(ring_[e].key); });
      ring_[s] = Entry{k, std::move(v)};
      oldest_ = (s + 1 == cap_) ? 0 : s + 1;
    }
    index_.insert(hash(k), s);
    return &ring_[s].value;
  }

  // Visits every (key, value), oldest first.
  template <typename F>
  void for_each(F&& f) const {
    const size_t n = ring_.size();
    for (size_t i = 0, s = oldest_; i < n; ++i, s = (s + 1 == n) ? 0 : s + 1) {
      f(ring_[s].key, ring_[s].value);
    }
  }

 private:
  static constexpr size_t kNoPos = detail::ProbeIndex::kNoPos;

  struct Entry {
    K key;
    [[no_unique_address]] V value;
  };

  static uint64_t hash(const K& k) { return Hash()(k); }

  size_t pos_of(const K& k) const {
    return index_.find(hash(k),
                       [&](uint32_t s) { return ring_[s].key == k; });
  }

  // Doubles the ring's reservation (up to the cap) and the index.
  void grow() {
    ring_.reserve(std::min(cap_, std::max<size_t>(16, 2 * ring_.size())));
    index_.rehash(std::max<size_t>(16, 2 * index_.capacity()),
                  static_cast<uint32_t>(ring_.size()),
                  [this](uint32_t s) { return hash(ring_[s].key); });
  }

  size_t cap_;
  std::vector<Entry> ring_;
  detail::ProbeIndex index_;
  // Ring position of the oldest entry; 0 until the ring is full.
  uint32_t oldest_ = 0;
};

}  // namespace faastcc
