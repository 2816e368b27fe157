// A keyed slab table: the map behind every cache's entries (with their LRU
// order) and the storage layer's per-key state: MvStore version chains,
// eventual-store items and subscriber sets.
//
// Entries sit in one contiguous vector of slots.  An open-addressing index
// (common/probe_index.h: linear probing over u32 slot numbers, at most half
// full) finds a slot by key, and intrusive u32 prev/next links keep the
// slots in recency order, most recent first.  A key therefore costs one
// slot plus about two index words instead of the half-dozen heap nodes of
// an unordered_map paired with a std::list LRU and its iterator index.
//
// Erasing moves the last slot into the hole, so slot order (for_each) is
// neither insertion nor recency order.  A caller whose iteration feeds
// messages must sort what it collects.  Pointers returned by find() and
// try_emplace() are invalidated by the next insert or erase.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/probe_index.h"
#include "common/types.h"

namespace faastcc {

template <typename V>
class KeyTable {
 public:
  size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }
  bool contains(Key k) const { return slot_of(k) != kNil; }

  V* find(Key k) {
    const uint32_t s = slot_of(k);
    return s == kNil ? nullptr : &slots_[s].value;
  }
  const V* find(Key k) const {
    const uint32_t s = slot_of(k);
    return s == kNil ? nullptr : &slots_[s].value;
  }

  // Sizes the table for `n` keys: the slot vector exactly and the index
  // once, so inserting up to `n` keys neither reallocates nor rehashes.
  void reserve(size_t n) {
    slots_.reserve(n);
    size_t cap = std::max<size_t>(index_.capacity(), 16);
    while (cap < 2 * n) cap *= 2;
    if (cap > index_.capacity()) rehash(cap);
  }

  // Inserts `k` as the most recent entry, its value constructed from
  // `args`.  A present key keeps its value and its place in recency order.
  // Returns the key's value and whether it was inserted.
  template <typename... Args>
  std::pair<V*, bool> try_emplace(Key k, Args&&... args) {
    if (const uint32_t s = slot_of(k); s != kNil) {
      return {&slots_[s].value, false};
    }
    if (index_.full_for(slots_.size())) {
      rehash(index_.capacity() == 0 ? 16 : index_.capacity() * 2);
    }
    const auto s = static_cast<uint32_t>(slots_.size());
    slots_.push_back(Slot{k, kNil, kNil, V(std::forward<Args>(args)...)});
    index_.insert(k, s);
    push_front(s);
    return {&slots_[s].value, true};
  }

  // Makes `k` the most recent entry; no-op when absent.
  void touch(Key k) {
    const uint32_t s = slot_of(k);
    if (s == kNil || s == head_) return;
    unlink(s);
    push_front(s);
  }

  // The least recently inserted or touched key.
  std::optional<Key> least_recent() const {
    if (tail_ == kNil) return std::nullopt;
    return slots_[tail_].key;
  }

  // Removes `k`; returns whether it was present.
  bool erase(Key k) {
    const size_t hole = pos_of(k);
    if (hole == kNoPos) return false;
    const uint32_t s = index_.slot_at(hole);
    unlink(s);
    index_.erase_at(hole, [this](uint32_t slot) { return slots_[slot].key; });
    // Keep slots dense: the last slot moves into the freed one.
    const auto last = static_cast<uint32_t>(slots_.size() - 1);
    if (s != last) {
      index_.set_slot(pos_of(slots_[last].key), s);
      slots_[s] = std::move(slots_[last]);
      const Slot& m = slots_[s];
      (m.prev == kNil ? head_ : slots_[m.prev].next) = s;
      (m.next == kNil ? tail_ : slots_[m.next].prev) = s;
    }
    slots_.pop_back();
    return true;
  }

  // Visits every (key, value) in slot order; see the header note.
  template <typename F>
  void for_each(F&& f) {
    for (Slot& s : slots_) f(s.key, s.value);
  }
  template <typename F>
  void for_each(F&& f) const {
    for (const Slot& s : slots_) f(s.key, s.value);
  }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;
  static constexpr size_t kNoPos = detail::ProbeIndex::kNoPos;

  struct Slot {
    Key key;
    uint32_t prev;  // toward the most recent; kNil at the head
    uint32_t next;  // toward the least recent; kNil at the tail
    V value;
  };

  // Index position holding `k`, or kNoPos.  Keys hash to themselves.
  size_t pos_of(Key k) const {
    return index_.find(k, [&](uint32_t s) { return slots_[s].key == k; });
  }

  uint32_t slot_of(Key k) const {
    const size_t pos = pos_of(k);
    return pos == kNoPos ? kNil : index_.slot_at(pos);
  }

  void rehash(size_t cap) {
    index_.rehash(cap, static_cast<uint32_t>(slots_.size()),
                  [this](uint32_t s) { return slots_[s].key; });
  }

  void unlink(uint32_t s) {
    Slot& x = slots_[s];
    (x.prev == kNil ? head_ : slots_[x.prev].next) = x.next;
    (x.next == kNil ? tail_ : slots_[x.next].prev) = x.prev;
  }

  void push_front(uint32_t s) {
    Slot& x = slots_[s];
    x.prev = kNil;
    x.next = head_;
    (head_ == kNil ? tail_ : slots_[head_].prev) = s;
    head_ = s;
  }

  std::vector<Slot> slots_;
  detail::ProbeIndex index_;
  uint32_t head_ = kNil;  // most recent
  uint32_t tail_ = kNil;  // least recent
};

}  // namespace faastcc
