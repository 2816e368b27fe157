// The FaaSTCC caching layer (paper §4.3, Alg. 2), one instance per compute
// node.
//
// Entries are <key, value, t, promise> tuples.  A read request carries the
// client's snapshot interval; keys are processed in order against the
// running interval (Eq. 1/2), misses are fetched from the TCC storage in a
// single batched round at the interval's upper bound, and the narrowed
// interval is returned.
//
// The cache subscribes to updates for every key it holds.  Partitions push
// fresh versions of dirty subscribed keys every refresh period (50 ms in
// the paper) together with their current stable time; because the dirty
// set is complete for subscribed keys, the push's stable time also extends
// the promise of every *open* cached version of that partition (a version
// with no successor as of the push).  This keeps promises of rarely
// written keys fresh without per-key traffic.  Committed writes are not
// inserted eagerly (§4.7).
#pragma once

#include <deque>

#include "cache/cache_messages.h"
#include "common/key_table.h"
#include "common/metrics.h"
#include "net/rpc.h"
#include "storage/storage_client.h"

namespace faastcc::cache {

struct CacheParams {
  // Maximum number of entries; SIZE_MAX = unbounded (paper default), 0 =
  // cache disabled (§6.7's 0 % configuration).
  size_t capacity = SIZE_MAX;
  Duration lookup_cpu = microseconds(8);  // service time per request
  Duration retry_backoff = milliseconds(1);
  // Topology-service endpoint (0 = static routing).  When set, the cache
  // listens for epoch bumps (kTopoUpdate broadcasts + wrong-epoch NACK
  // driven pulls) and re-homes subscriptions and stable-tracking onto the
  // new owners.
  net::Address topo_service = 0;
  // Chaos knobs (tests/fuzzer only): re-enable historical bugs so the
  // consistency oracle can demonstrate it catches them.
  // Prewarm entries as open without a storage subscription: their promises
  // get extended by pushed stable times although no push will ever announce
  // a successor (the unsound-prewarm-promise bug).
  bool chaos_prewarm_open = false;
  // Serve cached entries regardless of the request's snapshot interval
  // (and skip narrowing), breaking snapshot validity outright.
  bool chaos_ignore_interval = false;
};

class FaasTccCache {
 public:
  FaasTccCache(net::Network& network, net::Address self,
               storage::TccTopology topology, CacheParams params,
               Metrics* metrics, obs::Tracer* tracer = nullptr);

  net::Address address() const { return rpc_.address(); }

  size_t entry_count() const { return entries_.size(); }
  // Memory footprint: value bytes plus per-entry key/timestamp/promise
  // metadata (Fig. 8).
  size_t bytes() const { return bytes_; }

  struct Counters {
    Counter requests;
    Counter served_from_cache;  // requests fully satisfied locally
    Counter storage_fetches;
    Counter pushes_applied;
    Counter pushes_stale;
    Counter evictions;
    // Push-channel sequence gaps observed (lost pushes): each one closes
    // the partition's open entries until a re-announce arrives.
    Counter push_gaps;
    // Cached keys whose owner changed on an epoch bump (closed and
    // re-subscribed at the new owner).
    Counter rehomed_keys;
  };
  const Counters& counters() const { return counters_; }

  struct Entry {
    Value value;
    Timestamp ts;
    Timestamp promise;
    // No successor known as of `promise`: the promise may be extended by a
    // later stable time of the owning partition.
    bool open = false;
    // Subscription state.  Only cached keys are subscribed (on insert) and
    // eviction unsubscribes them, so the state lives on the entry:
    // `sub_desired` — a subscribe was requested and not cancelled;
    // `sub_active` — every partition acknowledged it (implies desired).
    // Only an active subscription may open the entry: an unconfirmed one
    // delivers no pushes, so extending promises on it would be unsound.
    bool sub_desired = false;
    bool sub_active = false;
  };

  // Test access.
  bool has(Key k) const { return entries_.contains(k); }
  const Entry* peek(Key k) const;
  Timestamp partition_stable(PartitionId p) const {
    return partition_stable_.at(p);
  }

  // Installs an entry directly, bypassing the protocol (experiment
  // pre-warming, §6.1: "cache sizes are unbounded and were pre-warmed").
  // `subscribed` asserts the caller has already registered the matching
  // storage subscription; only then is the entry open (eligible for
  // promise extension by pushed stable times).  An open entry without a
  // live subscription would keep promising a version the partition may
  // already have overwritten — the cache never hears about the successor.
  void prewarm(const storage::VersionedValue& vv, bool subscribed = false);

  // Sizes the entry table for a prewarm of `n` keys.
  void reserve(size_t n) { entries_.reserve(n); }

 private:
  static constexpr size_t kEntryOverhead = 8 + 8 + 8;  // key + ts + promise
  // Must cover at least one full gossip period of the stabilizer at the
  // configured backoff, or hot-key reads can exhaust retries under
  // extreme contention.
  static constexpr int kMaxFetchAttempts = 8;

  sim::Task<Buffer> on_read(Buffer req, net::Address from);
  void on_push(Buffer msg, net::Address from);
  void on_push_batch(Buffer msg, net::Address from);
  // Shared body of both push frames: seq-channel ordering, per-partition
  // stable merge, and per-update apply.  PushBatchMsg updates arrive here
  // with their promise re-derived as max(ts, header stable) — exactly the
  // value the PushMsg path would have carried.
  void apply_push(PartitionId partition, uint64_t seq, Timestamp stable,
                  const std::vector<storage::VersionedValue>& updates);

  // The promise currently claimable for an entry (extended by the owning
  // partition's pushed stable time when the version is open).
  Timestamp effective_promise(Key k, const Entry& e) const;

  void insert_or_update(const storage::TccReadResp::Entry& entry);
  void evict_to_capacity();

  // Ordered control channel to the storage layer: (un)subscribe requests
  // are queued and sent one at a time with increasing sequence numbers, so
  // a duplicated/delayed retry can never resurrect a cancelled
  // subscription at a partition.  Subscribed keys must be cached; evicted
  // keys are unsubscribed after their entry (and its state) is gone.
  void request_subscribe(std::vector<Key> keys);
  void request_ctl(bool subscribe, std::vector<Key> keys);
  sim::Task<void> ctl_drain();
  // A push-channel sequence gap: the lost push may have announced a
  // successor version, so every open entry of the partition must close
  // until the re-announce (triggered by resubscribing) arrives.
  void handle_push_gap(PartitionId p);
  // An epoch bump re-homed part of the key space: close entries whose
  // owner changed (the old owner dropped our subscription with the chain)
  // and re-subscribe them at the new owner.
  void rehome(const routing::RoutingTable& old_table,
              const routing::RoutingTable& new_table);

  net::RpcNode rpc_;
  storage::TccStorageClient storage_;
  CacheParams params_;
  Metrics* metrics_;
  obs::Tracer* tracer_ = nullptr;
  // Cached entries in LRU order.
  KeyTable<Entry> entries_;
  size_t bytes_ = 0;
  // Highest global stable time observed anywhere; monotone per partition,
  // so always a safe read snapshot.
  Timestamp stable_est_;
  // Last pushed stable time per partition (promise extension).
  std::vector<Timestamp> partition_stable_;
  // Last in-order push-channel sequence per partition (0 = none yet; the
  // first push carries seq 1, so losses before first contact also count
  // as gaps).
  std::vector<uint64_t> push_seq_;
  // Bumped on every push gap; an in-flight storage read that started
  // before a gap must not reopen entries from its stale "open" flags.
  uint64_t gap_epoch_ = 0;
  struct CtlOp {
    bool subscribe;
    std::vector<Key> keys;
  };
  std::deque<CtlOp> ctl_queue_;
  bool ctl_busy_ = false;
  uint64_t ctl_seq_ = 0;
  Counters counters_;
};

}  // namespace faastcc::cache
