#include "probes.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "cache/cache_messages.h"
#include "cache/hydro_types.h"
#include "cache/lru_index.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/zipf.h"
#include "harness/json.h"
#include "net/network.h"
#include "sim/event_loop.h"
#include "storage/messages.h"
#include "storage/mv_store.h"
#include "workload/workload.h"

namespace faastcc::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Keeps the optimizer from discarding a result.
template <typename T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

// Median ns per call over timed batches of `calls` calls each.  `prep`
// runs untimed before every batch (fresh inputs, bounded state); one
// untimed warm-up batch comes first.
template <typename Prep, typename Batch>
double ns_per_call(size_t calls, Prep prep, Batch batch) {
  constexpr double kBudgetS = 0.15;
  constexpr size_t kMinBatches = 15;
  constexpr size_t kMaxBatches = 201;
  prep();
  batch();
  std::vector<double> ns;
  const auto start = Clock::now();
  while (ns.size() < kMaxBatches) {
    prep();
    const auto t0 = Clock::now();
    batch();
    const auto t1 = Clock::now();
    ns.push_back(std::chrono::duration<double, std::nano>(t1 - t0).count() /
                 static_cast<double>(calls));
    if (ns.size() >= kMinBatches &&
        std::chrono::duration<double>(t1 - start).count() > kBudgetS) {
      break;
    }
  }
  std::nth_element(ns.begin(), ns.begin() + ns.size() / 2, ns.end());
  return ns[ns.size() / 2];
}

std::vector<Key> sample_keys(const ZipfSampler& zipf, Rng& rng, size_t n) {
  std::vector<Key> keys(n);
  for (Key& k : keys) k = zipf.sample(rng);
  return keys;
}

// A dependency map of `entries` distinct Zipf-drawn keys.
cache::DepMap make_depmap(const ZipfSampler& zipf, Rng& rng, size_t entries) {
  cache::DepMap m;
  for (size_t tries = 0; m.size() < entries && tries < 64 * entries;
       ++tries) {
    m.require(zipf.sample(rng), tries + 1, static_cast<SimTime>(tries), 1);
  }
  m.compact();
  return m;
}

// Encode + decode of one request and its response.  Returns the request's
// encoded size through `req_bytes`.
template <typename Req, typename Resp>
double codec_probe(const Req& req, const Resp& resp, size_t* req_bytes) {
  *req_bytes = encode_message(req).size();
  constexpr size_t kCalls = 256;
  return ns_per_call(
      kCalls, [] {},
      [&] {
        for (size_t i = 0; i < kCalls; ++i) {
          const Buffer a = encode_message(req);
          const Req q = decode_message<Req>(a);
          const Buffer b = encode_message(resp);
          const Resp r = decode_message<Resp>(b);
          keep(q);
          keep(r);
        }
      });
}

}  // namespace

std::string run_probes(const Workload& w, uint64_t seed, double depmap_bytes) {
  const harness::ClusterParams params = params_for(w, seed);
  const workload::WorkloadParams& wp = params.workload;
  const ZipfSampler zipf(wp.num_keys, wp.zipf);
  Rng rng(seed);
  const Value value(wp.value_size, 'x');
  const auto reads = static_cast<size_t>(wp.reads_per_function);
  // Dependency-map entries at the run's median metadata size (4-byte count
  // plus one fixed-width record per entry).
  const size_t dep_entries =
      depmap_bytes > 4
          ? static_cast<size_t>((depmap_bytes - 4) / cache::kDepWireBytes)
          : 0;

  harness::json::Writer j(/*compact=*/true);
  j.begin_object();

  constexpr size_t kCalls = 1024;

  // common: Zipf key sampling at the workload's key count and skew.
  j.key("common.probe_zipf_ns");
  j.number(ns_per_call(kCalls, [] {}, [&] {
    for (size_t i = 0; i < kCalls; ++i) keep(zipf.sample(rng));
  }));

  // common: the workload's dominant read request/response.  Cache hits go
  // executor -> node cache; on a bounded cache nearly every read goes on
  // to a TCC partition; HydroCache ships the transaction's context.
  size_t req_bytes = 0;
  double codec_ns = 0;
  const std::vector<Key> read_keys = sample_keys(zipf, rng, reads);
  const Timestamp ts(1000, 0, 1);
  const Timestamp promise(2000, 0, 0);
  if (w.system == harness::SystemKind::kHydroCache) {
    cache::HydroReadReq req;
    req.keys = read_keys;
    req.context = make_depmap(zipf, rng, dep_entries);
    cache::HydroReadResp resp;
    for (Key k : read_keys) {
      resp.entries.push_back({k, value, 1, 1000, {}});
      resp.from_cache.push_back(true);
    }
    codec_ns = codec_probe(req, resp, &req_bytes);
  } else if (w.cache_capacity != SIZE_MAX) {
    storage::TccReadReq req;
    req.snapshot = Timestamp::max();
    req.keys = read_keys;
    req.cached_ts.assign(read_keys.size(), Timestamp::min());
    storage::TccReadResp resp;
    resp.stable_time = promise;
    for (Key k : read_keys) {
      resp.entries.push_back({k, storage::TccReadResp::Status::kValue, value,
                              ts, promise, true});
    }
    codec_ns = codec_probe(req, resp, &req_bytes);
  } else {
    cache::CacheReadReq req;
    req.keys = read_keys;
    cache::CacheReadResp resp;
    for (Key k : read_keys) {
      resp.entries.push_back({k, value, ts, promise});
      resp.from_cache.push_back(true);
    }
    codec_ns = codec_probe(req, resp, &req_bytes);
  }
  j.key("common.probe_codec_ns");
  j.number(codec_ns);

  // workload: one chain DAG with freshly sampled keys.
  {
    workload::WorkloadGen gen(wp, Rng(seed));
    j.key("workload.probe_next_dag_ns");
    j.number(ns_per_call(kCalls, [] {}, [&] {
      for (size_t i = 0; i < kCalls; ++i) {
        const faas::DagSpec dag = gen.next_dag();
        keep(dag);
      }
    }));
  }

  // net: Network::send -> the receiving handler, for a fabric message the
  // size of the dominant read request.
  {
    sim::EventLoop loop;
    net::Network network(loop, params.net, Rng(seed));
    uint64_t delivered = 0;
    network.register_endpoint(2, [&](net::Message m) {
      delivered += m.payload.size();
    });
    std::vector<Buffer> payloads;
    j.key("net.probe_deliver_ns");
    j.number(ns_per_call(
        kCalls,
        [&] { payloads.assign(kCalls, Buffer(req_bytes, 0)); },
        [&] {
          for (Buffer& p : payloads) {
            net::Message m;
            m.from = 1;
            m.to = 2;
            m.payload = std::move(p);
            network.send(std::move(m));
          }
          loop.run();
        }));
    keep(delivered);
  }

  // storage: one partition's MvStore (keys owned by partition 0), read at
  // a snapshot above every version and installed at fresh timestamps.
  {
    const uint64_t parts = params.partitions;
    storage::MvStore store;
    for (Key k = 0; k < wp.num_keys; k += parts) {
      store.install(k, value, Timestamp(1, 0, 0));
    }
    uint64_t clock = 2;
    std::vector<Key> keys;
    const auto fresh_keys = [&] {
      keys = sample_keys(zipf, rng, kCalls);
      for (Key& k : keys) k -= k % parts;
    };
    j.key("storage.probe_mvstore_read_ns");
    j.number(ns_per_call(kCalls, fresh_keys, [&] {
      for (Key k : keys) {
        keep(store.read_at(k, Timestamp(clock, 0, 0)).version);
      }
    }));
    // GC between batches keeps chains as short as a partition's do.
    j.key("storage.probe_mvstore_install_ns");
    j.number(ns_per_call(
        kCalls,
        [&] {
          store.gc_before(Timestamp(clock, 0, 0));
          fresh_keys();
        },
        [&] {
          for (Key k : keys) store.install(k, value, Timestamp(++clock, 0, 1));
        }));
  }

  // cache: LRU bookkeeping at the workload's capacity, prewarmed with the
  // hottest keys like the cluster's caches.
  {
    const size_t cap = static_cast<size_t>(
        std::min<uint64_t>(w.cache_capacity, wp.num_keys));
    cache::LruIndex lru;
    for (Key k = 0; k < cap; ++k) lru.touch(k);
    std::vector<Key> keys;
    j.key("cache.probe_lru_touch_ns");
    j.number(ns_per_call(
        kCalls, [&] { keys = sample_keys(zipf, rng, kCalls); },
        [&] {
          for (Key k : keys) {
            lru.touch(k);
            if (lru.size() > cap) lru.erase(*lru.least_recent());
          }
        }));
  }

  // cache: merging two dependency maps of the run's median context size
  // (HydroCache only; FaaSTCC carries no dependency metadata).
  double merge_ns = 0;
  if (w.system == harness::SystemKind::kHydroCache && dep_entries > 0) {
    const cache::DepMap a = make_depmap(zipf, rng, dep_entries);
    const cache::DepMap b = make_depmap(zipf, rng, dep_entries);
    constexpr size_t kMerges = 64;
    merge_ns = ns_per_call(kMerges, [] {}, [&] {
      for (size_t i = 0; i < kMerges; ++i) {
        cache::DepMap c = a;
        c.merge(b);
        keep(c);
      }
    });
  }
  j.key("cache.probe_depmap_merge_ns");
  j.number(merge_ns);

  j.key("codec_request_bytes");
  j.u64(req_bytes);
  j.key("depmap_entries");
  j.u64(dep_entries);
  j.end_object();
  return j.take();
}

}  // namespace faastcc::perfbench
