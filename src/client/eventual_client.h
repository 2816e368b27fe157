// Baseline Cloudburst client library: eventual consistency, no
// transactional guarantees.  Context carries the write set only; reads are
// served by the plain cache or a single storage round.  Used for the
// Fig. 11 overhead comparison.
#pragma once

#include <map>
#include <unordered_map>

#include "cache/cache_messages.h"
#include "client/txn.h"
#include "common/metrics.h"
#include "net/rpc.h"
#include "storage/storage_client.h"

namespace faastcc::client {

struct EventualContext {
  std::map<Key, Value> write_set;

  static constexpr auto kFields = std::tuple{&EventualContext::write_set};
};

class EventualAdapter final : public SystemAdapter {
 public:
  EventualAdapter(net::RpcNode& rpc, net::Address cache_address,
                  storage::EvTopology topology, Rng rng, Metrics* metrics,
                  obs::Tracer* tracer = nullptr);

  std::unique_ptr<FunctionTxn> open(const TxnInfo& info,
                                    std::vector<Payload> parent_contexts,
                                    Payload session) override;

 private:
  friend class EventualTxn;
  net::RpcNode& rpc_;
  net::Address cache_address_;
  storage::EvStorageClient storage_;
  Metrics* metrics_;
  obs::Tracer* tracer_ = nullptr;
};

class EventualTxn final : public FunctionTxn {
 public:
  EventualTxn(EventualAdapter& adapter, TxnInfo info, EventualContext context)
      : adapter_(adapter), info_(std::move(info)), ctx_(std::move(context)) {}

  sim::Task<std::optional<std::vector<Value>>> read(
      std::vector<Key> keys) override;
  void write(Key k, Value v) override;
  Buffer export_context() const override;
  size_t metadata_bytes() const override { return 0; }
  sim::Task<std::optional<Buffer>> commit() override;

 private:
  EventualAdapter& adapter_;
  TxnInfo info_;
  EventualContext ctx_;
  std::unordered_map<Key, Value> read_set_;
};

}  // namespace faastcc::client
