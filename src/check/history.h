// The history a FaaSTCC run feeds its consistency checker.
//
// Hook sites from the partitions up to the client library call a
// HistorySink through a plain nullable pointer.  Every hook is
// zero-perturbation (the same out-of-band pattern as obs::Tracer): a sink
// never schedules events and never draws randomness, so a run with a sink
// attached is bit-identical to one without.  ConsistencyOracle is the
// sink a run checks against; TeeSink forwards one history to two sinks,
// so a second checker can be compared against the oracle on the same run.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/hlc.h"
#include "common/types.h"

namespace faastcc::check {

class HistorySink {
 public:
  virtual ~HistorySink() = default;

  // A version physically installed at a partition's MvStore.
  virtual void on_install(PartitionId partition, Key key, Timestamp ts,
                          TxnId txn, const Value& value) = 0;
  // Dataset preload before the run (recorded as txn 0).
  virtual void on_preload(Key key, Timestamp ts, const Value& value) = 0;
  // The coordinator is about to send commit-phase RPCs: from here on,
  // installs by `txn` are legitimate even if the coordinator later reports
  // an abort (the documented torn-abort liveness tradeoff).
  virtual void on_commit_phase(TxnId txn, std::vector<Key> write_keys) = 0;
  // The coordinator reported commit to the client library.
  virtual void on_commit_ack(TxnId txn, Timestamp commit_ts,
                             Timestamp dep_ts) = 0;
  // The client library completed the transaction successfully (including
  // read-only transactions, which never reach the storage commit path).
  virtual void on_txn_complete(TxnId txn) = 0;
  // A function execution joined the transaction; returns a deterministic
  // function id for the read/write hooks (schedule order is deterministic,
  // so the ids are too).
  virtual uint64_t register_function(TxnId txn) = 0;
  // A cache-served (non-local) read returned by the client library: the
  // version's timestamp and the promise it came with.
  virtual void on_read(TxnId txn, uint64_t fn, Key key, Timestamp ts,
                       Timestamp promise, const Value& value) = 0;
  // A buffered write in a function body.
  virtual void on_write(TxnId txn, uint64_t fn, Key key,
                        const Value& value) = 0;
  // A client applied a committed DAG's session blob.
  virtual void on_session_commit(uint64_t client_id, Timestamp session_ts) = 0;
  // Elastic scale-out: `partition` finished joining with handoff floor
  // `floor` (max over its sources' sealed safe times and every migrated
  // version's timestamp).  Promise soundness across the handoff requires
  // that the joiner never installs a version at or below the floor —
  // every promise its sources issued for the migrated keys is <= floor.
  virtual void on_handoff(PartitionId partition, Timestamp floor) = 0;
  // Elastic scale-IN: like on_handoff, but the floor applies only to
  // `keys` — the chains the survivor inherited from a drained partition.
  // A survivor keeps serving its pre-owned keys through the transition, so
  // a prepare assigned before the drain may legitimately commit one of
  // them below the floor; only the migrated keys carry the guarantee.
  virtual void on_handoff(PartitionId partition, Timestamp floor,
                          std::vector<Key> keys) = 0;
  // Replication failover: a follower of `partition` was promoted to leader
  // holding exactly `surviving` versions.  Every commit-acked write
  // previously installed at this partition (at its acked timestamp) must
  // appear in `surviving` — the ack asserted durability at f+1, so a
  // missing version means the quorum lied.  Installs recorded before the
  // failover also become re-materialization candidates: a coordinator
  // retry may legitimately re-install an identical version at the promoted
  // leader (exempt from duplicate-install and handoff-floor flags), and a
  // never-acked install that died with the old leader may re-execute at a
  // fresh timestamp (exempt from the replayed-commit flag).
  virtual void on_failover(
      PartitionId partition,
      std::vector<std::pair<Key, Timestamp>> surviving) = 0;
};

// Forwards every hook to two sinks, `a` first.  Function ids come from
// `a`; both sinks number functions identically.
class TeeSink final : public HistorySink {
 public:
  TeeSink(HistorySink* a, HistorySink* b) : a_(a), b_(b) {}

  void on_install(PartitionId partition, Key key, Timestamp ts, TxnId txn,
                  const Value& value) override {
    a_->on_install(partition, key, ts, txn, value);
    b_->on_install(partition, key, ts, txn, value);
  }
  void on_preload(Key key, Timestamp ts, const Value& value) override {
    a_->on_preload(key, ts, value);
    b_->on_preload(key, ts, value);
  }
  void on_commit_phase(TxnId txn, std::vector<Key> write_keys) override {
    a_->on_commit_phase(txn, write_keys);
    b_->on_commit_phase(txn, std::move(write_keys));
  }
  void on_commit_ack(TxnId txn, Timestamp commit_ts,
                     Timestamp dep_ts) override {
    a_->on_commit_ack(txn, commit_ts, dep_ts);
    b_->on_commit_ack(txn, commit_ts, dep_ts);
  }
  void on_txn_complete(TxnId txn) override {
    a_->on_txn_complete(txn);
    b_->on_txn_complete(txn);
  }
  uint64_t register_function(TxnId txn) override {
    const uint64_t fn = a_->register_function(txn);
    b_->register_function(txn);
    return fn;
  }
  void on_read(TxnId txn, uint64_t fn, Key key, Timestamp ts,
               Timestamp promise, const Value& value) override {
    a_->on_read(txn, fn, key, ts, promise, value);
    b_->on_read(txn, fn, key, ts, promise, value);
  }
  void on_write(TxnId txn, uint64_t fn, Key key, const Value& value) override {
    a_->on_write(txn, fn, key, value);
    b_->on_write(txn, fn, key, value);
  }
  void on_session_commit(uint64_t client_id, Timestamp session_ts) override {
    a_->on_session_commit(client_id, session_ts);
    b_->on_session_commit(client_id, session_ts);
  }
  void on_handoff(PartitionId partition, Timestamp floor) override {
    a_->on_handoff(partition, floor);
    b_->on_handoff(partition, floor);
  }
  void on_handoff(PartitionId partition, Timestamp floor,
                  std::vector<Key> keys) override {
    a_->on_handoff(partition, floor, keys);
    b_->on_handoff(partition, floor, std::move(keys));
  }
  void on_failover(
      PartitionId partition,
      std::vector<std::pair<Key, Timestamp>> surviving) override {
    a_->on_failover(partition, surviving);
    b_->on_failover(partition, std::move(surviving));
  }

 private:
  HistorySink* a_;
  HistorySink* b_;
};

}  // namespace faastcc::check
