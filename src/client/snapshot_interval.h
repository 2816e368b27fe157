// Snapshot intervals (§4.5) — the paper's key coordination primitive.
//
// An interval [low, high] describes the set of snapshot timestamps a
// transaction may still commit to reading at.  It is narrowed by every
// read (Eq. 2), intersected when a function has several parents (Eq. 3),
// and admits a cached version exactly when Eq. 1 holds.  Its constant
// 16-byte encoding is the entirety of FaaSTCC's read-coordination
// metadata.
#pragma once

#include <span>

#include "common/hlc.h"
#include "common/serialize.h"

namespace faastcc::client {

struct SnapshotInterval {
  Timestamp low = Timestamp::min();
  Timestamp high = Timestamp::max();

  static SnapshotInterval full() { return {}; }
  static SnapshotInterval fixed(Timestamp t) { return {t, t}; }

  bool empty() const { return low > high; }

  // Eq. 1: a version <ts, promise> is consistent with this interval.
  bool admits(Timestamp ts, Timestamp promise) const {
    return promise >= low && ts <= high;
  }

  // Eq. 2: narrows after accepting a version <ts, promise>.
  void narrow(Timestamp ts, Timestamp promise) {
    if (ts > low) low = ts;
    if (promise < high) high = promise;
  }

  // Eq. 3: intersection of parents' intervals.  An empty result means the
  // parents read from incompatible snapshots and the transaction aborts.
  static SnapshotInterval merge(std::span<const SnapshotInterval> parents);

  friend bool operator==(const SnapshotInterval&,
                         const SnapshotInterval&) = default;

  static constexpr auto kFields =
      std::tuple{&SnapshotInterval::low, &SnapshotInterval::high};
};

}  // namespace faastcc::client
