// Multi-version in-memory store backing one TCC partition.
//
// Every key holds a version chain ordered by commit timestamp.  Reads
// select the newest version at or below a snapshot and also report the
// successor's timestamp, from which the partition derives the promise
// (§4.2: "either the timestamp of the next version, or the timestamp of
// the last committed transaction").
//
// Chains sit in the slots of a KeyTable (common/key_table.h).  A slot
// holds the key's newest version inline; older versions go behind one
// pointer that stays null while the key has a single version, as every
// preloaded key does until its first write.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/hlc.h"
#include "common/key_table.h"
#include "common/types.h"

namespace faastcc::storage {

class MvStore {
 public:
  struct Version {
    Value value;
    Timestamp ts;
  };

  struct ReadResult {
    const Version* version = nullptr;        // null => no version <= snapshot
    std::optional<Timestamp> next_ts;        // successor's timestamp, if any
    bool below_gc_horizon = false;           // snapshot predates GC'd history
  };

  // Installs a version.  Timestamps are unique system-wide (HLC + node id),
  // so installing the same timestamp twice is a protocol error.
  void install(Key key, Value value, Timestamp ts);

  // Installs a whole chain received through an elastic handoff.  Versions
  // may arrive in any order and may duplicate ones already present (a
  // retried migration re-delivers the parcel): duplicates by (key, ts) are
  // ignored, so the operation is idempotent.
  void migrate_in(Key key, const std::vector<Version>& versions);

  // Removes and returns every chain whose key satisfies `pred` (the slots
  // leaving this partition).  Results are sorted by key: chains_ iterates
  // in slot order, and the extracted set goes on the wire where byte
  // layout must be deterministic.
  std::vector<std::pair<Key, std::vector<Version>>> extract_chains(
      const std::function<bool(Key)>& pred);

  // Non-destructive copy of every chain, sorted by key — the replication
  // backfill payload (a follower re-syncs from the leader's chain head
  // without disturbing the leader's serving state).
  std::vector<std::pair<Key, std::vector<Version>>> snapshot_chains() const;

  // Newest version with ts <= snapshot.
  ReadResult read_at(Key key, Timestamp snapshot) const;

  // Drops versions strictly older than the newest version at or below
  // `horizon` (that one must survive: it is still the correct read for any
  // snapshot in [its ts, horizon]).  Returns number of versions dropped.
  size_t gc_before(Timestamp horizon);

  // Sizes the table for `n` keys (the dataset preload).
  void reserve(size_t n) { chains_.reserve(n); }

  size_t num_keys() const { return chains_.size(); }
  size_t num_versions() const { return num_versions_; }
  size_t value_bytes() const { return value_bytes_; }

  // Oldest retained timestamp for `key`; reads below it are unreliable.
  std::optional<Timestamp> oldest_ts(Key key) const;
  std::optional<Timestamp> newest_ts(Key key) const;

 private:
  // One key's versions: the newest inline, the older ones ascending by
  // timestamp behind `older` (null when there are none).  A chain is never
  // empty.
  struct Chain {
    Version newest;
    std::unique_ptr<std::vector<Version>> older;
  };

  // The chain's versions, oldest first.
  static std::vector<Version> flatten(const Chain& c);

  KeyTable<Chain> chains_;
  size_t num_versions_ = 0;
  size_t value_bytes_ = 0;
};

}  // namespace faastcc::storage
