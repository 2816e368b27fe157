// Wire messages between client libraries (running in function executors)
// and the per-node cache services.  These travel over same-node IPC.
#pragma once

#include <cstdint>
#include <vector>

#include "client/snapshot_interval.h"
#include "cache/hydro_types.h"
#include "common/serialize.h"
#include "storage/messages.h"

namespace faastcc::cache {

enum CacheMethod : uint16_t {
  kCacheRead = 40,  // FaaSTCC promise-aware cache
  kHydroRead = 41,  // HydroCache causal cache
  kPlainRead = 42,  // Cloudburst eventual cache
};

// ---------------------------------------------------------------------------
// FaaSTCC cache (Alg. 2).
// ---------------------------------------------------------------------------

struct CacheReadReq {
  client::SnapshotInterval interval;
  bool use_promises = true;  // Fig. 3 ablation: off => a cached version is
                             // admissible only if its own timestamp lies in
                             // the interval.
  std::vector<Key> keys;

  static constexpr auto kFields =
      std::tuple{&CacheReadReq::interval, &CacheReadReq::use_promises,
                 &CacheReadReq::keys};
};

struct CacheReadResp {
  bool abort = false;
  client::SnapshotInterval interval;  // narrowed by the accepted versions
  std::vector<storage::VersionedValue> entries;  // parallel to request keys
  std::vector<bool> from_cache;                  // parallel to entries

  static constexpr auto kFields =
      std::tuple{&CacheReadResp::abort, &CacheReadResp::interval,
                 &CacheReadResp::entries, &CacheReadResp::from_cache};
};

// ---------------------------------------------------------------------------
// HydroCache.
// ---------------------------------------------------------------------------

struct HydroReadReq {
  std::vector<Key> keys;
  DepMap context;  // the transaction's accumulated causal requirements

  static constexpr auto kFields =
      std::tuple{&HydroReadReq::keys, &HydroReadReq::context};
};

struct HydroReadEntry {
  Key key = 0;
  Value value;
  uint64_t counter = 0;
  SimTime written_at = 0;
  DepList deps;  // merged into the txn context by the client; shared, not
                 // copied, with the cache entry it came from

  static constexpr auto kFields =
      std::tuple{&HydroReadEntry::key, &HydroReadEntry::value,
                 &HydroReadEntry::counter, &HydroReadEntry::written_at,
                 &HydroReadEntry::deps};
};

struct HydroReadResp {
  bool abort = false;
  std::vector<HydroReadEntry> entries;  // parallel to request keys
  std::vector<bool> from_cache;
  SimTime global_cut = 0;  // latest dependency-GC watermark seen

  static constexpr auto kFields =
      std::tuple{&HydroReadResp::abort, &HydroReadResp::entries,
                 &HydroReadResp::from_cache, &HydroReadResp::global_cut};
};

// ---------------------------------------------------------------------------
// Plain (Cloudburst, eventual consistency) cache.
// ---------------------------------------------------------------------------

struct PlainReadReq {
  std::vector<Key> keys;

  static constexpr auto kFields = std::tuple{&PlainReadReq::keys};
};

struct PlainReadResp {
  // Set when a storage replica stayed unreachable through the retry
  // budget; the affected entries hold empty values the client must not
  // trust.
  bool abort = false;
  std::vector<storage::KeyValue> entries;  // parallel to request keys

  static constexpr auto kFields =
      std::tuple{&PlainReadResp::abort, &PlainReadResp::entries};
};

}  // namespace faastcc::cache
