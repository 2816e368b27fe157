// Test-only reference model for check::ConsistencyOracle: the original
// batch checker, which records the whole history and verifies it after the
// run.  See reference_oracle.cc.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/history.h"
#include "check/oracle.h"

namespace faastcc::check {

class ReferenceOracle final : public HistorySink {
 public:
  void on_install(PartitionId partition, Key key, Timestamp ts, TxnId txn,
                  const Value& value) override;
  void on_preload(Key key, Timestamp ts, const Value& value) override;
  void on_commit_phase(TxnId txn, std::vector<Key> write_keys) override;
  void on_commit_ack(TxnId txn, Timestamp commit_ts,
                     Timestamp dep_ts) override;
  void on_txn_complete(TxnId txn) override;
  uint64_t register_function(TxnId txn) override;
  void on_read(TxnId txn, uint64_t fn, Key key, Timestamp ts,
               Timestamp promise, const Value& value) override;
  void on_write(TxnId txn, uint64_t fn, Key key, const Value& value) override;
  void on_session_commit(uint64_t client_id, Timestamp session_ts) override;
  void on_handoff(PartitionId partition, Timestamp floor) override;
  void on_handoff(PartitionId partition, Timestamp floor,
                  std::vector<Key> keys) override;
  void on_failover(PartitionId partition,
                   std::vector<std::pair<Key, Timestamp>> surviving) override;

  // Rebuilds every key's history and checks the whole run.
  std::vector<Violation> check() const;

 private:
  struct InstallRec {
    Key key;
    Timestamp ts;
    TxnId txn;
    uint64_t value_hash;
    PartitionId partition;
  };
  struct ReadRec {
    TxnId txn;
    uint64_t fn;
    Key key;
    Timestamp ts;
    Timestamp promise;
    uint64_t value_hash;
    uint64_t seq;  // global record order (orders reads vs. writes in a fn)
  };
  struct WriteRec {
    TxnId txn;
    uint64_t fn;
    Key key;
    uint64_t value_hash;
    uint64_t seq;
  };
  struct TxnRec {
    std::vector<Key> write_keys;
    bool phase_entered = false;
    bool acked = false;
    bool completed = false;
    Timestamp commit_ts = Timestamp::min();
    Timestamp dep_ts = Timestamp::min();
  };
  struct HandoffRec {
    PartitionId partition;
    Timestamp floor;
    size_t installs_before;  // installs_ size at handoff; earlier ones exempt
    // Sorted keys the floor is scoped to; empty = every key.
    std::vector<Key> keys;
  };
  struct FailoverRec {
    PartitionId partition;
    size_t installs_before;  // installs_ size at promotion
    // Sorted (key, ts) pairs present at the promoted leader.
    std::vector<std::pair<Key, Timestamp>> surviving;
  };

  std::vector<InstallRec> installs_;
  std::vector<HandoffRec> handoffs_;
  std::vector<FailoverRec> failovers_;
  std::vector<ReadRec> reads_;
  std::vector<WriteRec> writes_;
  std::unordered_map<TxnId, TxnRec> txns_;
  // Ordered for deterministic violation output.
  std::map<uint64_t, std::vector<Timestamp>> sessions_;
  uint64_t next_fn_ = 0;
  uint64_t next_seq_ = 0;
};

}  // namespace faastcc::check
