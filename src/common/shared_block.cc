#include "common/shared_block.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/probe_index.h"

namespace faastcc {
namespace {

// Every live block, found by content.  A block that only the table still
// holds is swept when the table reaches `sweep_at_`: twice the blocks that
// survived the previous sweep, and at least kMinSweep.  The block vector
// and the index are sized for `sweep_at_` blocks at each sweep, so between
// sweeps a new block costs exactly its one allocation.
class SharedBlocks {
 public:
  SharedBlocks() { resize_for(kMinSweep); }

  // The held block with `bytes`, or a new one the table keeps.
  Value intern(std::string_view bytes) {
    if (bytes.empty()) return Value();
    const uint64_t h = hash(bytes);
    const size_t pos = index_.find(
        h, [&](uint32_t s) { return blocks_[s].view() == bytes; });
    if (pos != detail::ProbeIndex::kNoPos) {
      return blocks_[index_.slot_at(pos)];
    }
    if (blocks_.size() == sweep_at_) sweep();
    const auto s = static_cast<uint32_t>(blocks_.size());
    blocks_.emplace_back(bytes);
    index_.insert(h, s);
    return blocks_.back();
  }

 private:
  static constexpr size_t kMinSweep = 1024;

  static uint64_t hash(std::string_view bytes) {
    return std::hash<std::string_view>()(bytes);
  }

  void sweep() {
    std::erase_if(blocks_, [](const Value& b) { return b.unique(); });
    sweep_at_ = std::max(kMinSweep, 2 * blocks_.size());
    resize_for(sweep_at_);
  }

  // Room for `n` blocks: the vector reserved, the index at most half full.
  void resize_for(size_t n) {
    blocks_.reserve(n);
    index_.rehash(std::bit_ceil(2 * n), static_cast<uint32_t>(blocks_.size()),
                  [this](uint32_t s) { return hash(blocks_[s].view()); });
  }

  std::vector<Value> blocks_;
  detail::ProbeIndex index_;
  size_t sweep_at_ = kMinSweep;
};

}  // namespace

Value shared_block(std::string_view bytes) {
  thread_local SharedBlocks table;
  return table.intern(bytes);
}

}  // namespace faastcc
