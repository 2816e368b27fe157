// The open-addressing index behind KeyTable and FifoWindow: linear probing
// over u32 slot numbers in a power-of-two array kept at most half full,
// with backward-shift deletion so lookups never meet tombstones.
//
// The index stores slot numbers only; the owner keeps the entries and
// answers two questions through callbacks: whether a slot holds the key
// being looked up, and the 64-bit hash of the key in a slot.  The hash is
// spread by a Fibonacci multiply, so small dense integers (keys, txn ids)
// land far apart.
#pragma once

#include <cstdint>
#include <vector>

namespace faastcc::detail {

class ProbeIndex {
 public:
  static constexpr size_t kNoPos = SIZE_MAX;

  // Number of positions (0 before the first rehash).
  size_t capacity() const { return index_.size(); }

  // Whether one more entry than `n` would push the index past half full.
  bool full_for(size_t n) const { return (n + 1) * 2 > index_.size(); }

  // Position holding the slot `is_key(slot)` accepts on `hash`'s probe
  // path, or kNoPos.
  template <typename IsKey>
  size_t find(uint64_t hash, IsKey&& is_key) const {
    if (index_.empty()) return kNoPos;
    for (size_t i = home_of(hash);; i = (i + 1) & mask_) {
      const uint32_t e = index_[i];
      if (e == 0) return kNoPos;
      if (is_key(e - 1)) return i;
    }
  }

  uint32_t slot_at(size_t pos) const { return index_[pos] - 1; }
  void set_slot(size_t pos, uint32_t slot) { index_[pos] = slot + 1; }

  // Places `slot` at the first empty position on `hash`'s probe path.
  void insert(uint64_t hash, uint32_t slot) {
    index_[free_pos(hash)] = slot + 1;
  }

  // Empties position `hole`, pulling later entries of its probe run back
  // into the hole when the hole lies on their probe path.
  template <typename HashOf>
  void erase_at(size_t hole, HashOf&& hash_of) {
    for (size_t j = (hole + 1) & mask_; index_[j] != 0; j = (j + 1) & mask_) {
      const size_t home = home_of(hash_of(index_[j] - 1));
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        index_[hole] = index_[j];
        hole = j;
      }
    }
    index_[hole] = 0;
  }

  // Rebuilds the index at `cap` (a power of two) positions holding slots
  // [0, slots) in slot order.
  template <typename HashOf>
  void rehash(size_t cap, uint32_t slots, HashOf&& hash_of) {
    index_.assign(cap, 0);
    mask_ = cap - 1;
    shift_ = 64;
    for (size_t c = cap; c > 1; c >>= 1) --shift_;
    for (uint32_t s = 0; s < slots; ++s) insert(hash_of(s), s);
  }

 private:
  size_t home_of(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  size_t free_pos(uint64_t hash) const {
    size_t i = home_of(hash);
    while (index_[i] != 0) i = (i + 1) & mask_;
    return i;
  }

  // Slot number + 1 per position; 0 = empty.
  std::vector<uint32_t> index_;
  size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace faastcc::detail
