// Consistency oracle for the FaaSTCC protocol stack.
//
// Receives, through the zero-perturbation HistorySink hooks, every version
// install, every committed transaction, every function-level read and
// every client session step, and verifies the paper's actual contract as
// the records arrive:
//
//   * atomic visibility     — an acked commit installed all of its writes,
//                             and no snapshot can observe a torn subset;
//   * causal order          — commit ts > dep ts and > every read ts;
//   * promise soundness     — no version was ever installed with a
//                             timestamp in (returned_ts, promise] of any
//                             read (§4.2: a promise is forever);
//   * snapshot validity     — one snapshot in [low, high] explains every
//                             read of a completed transaction (§4.8);
//   * repeatable reads      — a transaction never observes two versions of
//                             the same key;
//   * read-your-writes      — a function never cache-reads a key it wrote;
//   * session monotonicity  — a client's session timestamp never regresses
//                             across DAGs.
//
// Verification is online.  The oracle keeps each key's install chain, and
// on every version two registers that summarise all reads of it: the
// highest promise any read received, and the highest snapshot low of any
// completed transaction that read it.  A read is checked against the
// chain when it arrives and folded into the promise register; its
// transaction keeps the read pending only until it completes, when the
// repeatable-read and snapshot-window checks run and the low register of
// every version it read is raised.  (The versions read stay a little
// longer, so a ghost execution reading after the commit is still checked
// against the same snapshot.)  A later install at t is then checked
// against the registers of the version just below t: either register at
// or above t means a read already returned would now be contradicted.
// What no record seen so far can decide (an install whose transaction has
// not yet entered its commit phase, a replayed commit a later failover
// could excuse, an acked write not yet installed, a durability gap whose
// transaction is not yet acked) is held as pending and settled by check().
//
// The oracle deliberately knows nothing about the transport: it cross-checks
// what the storage layer *did* (installs) against what the client stack
// *claimed* (acks, reads, promises), which is exactly where retried/dropped
// messages can tear the two apart.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "check/history.h"
#include "common/hlc.h"
#include "common/types.h"
#include "sim/event_loop.h"

namespace faastcc::check {

// FNV-1a over the value bytes: installs and reads are cross-checked by
// hash so the oracle never retains value payloads.
uint64_t hash_value(const Value& v);

struct Violation {
  enum class Kind : uint8_t {
    kLostWrite,           // acked commit with a write never installed
    kDuplicateInstall,    // two installs of one (key, ts) / replayed commit
    kPhantomInstall,      // install by a txn that never entered commit
    kCausalOrder,         // commit ts <= dep ts or <= a read ts
    kUnsoundPromise,      // version installed inside (read ts, promise]
    kEmptySnapshotWindow, // no single snapshot explains a txn's reads
    kUnexplainedRead,     // read returned a version nobody installed
    kValueMismatch,       // read value != installed value at that ts
    kNonRepeatableRead,   // one txn observed two versions of a key
    kReadYourWrites,      // function cache-read a key it had written
    kSessionOrder,        // client session timestamp regressed
    kHandoffFloor,        // post-handoff install at or below the sealed floor
    kDurabilityLoss,      // commit-acked write missing after a leader failover
  };
  Kind kind;
  TxnId txn = 0;
  Key key = 0;
  std::string detail;
  // Sim time of the record that exposed the violation.  One settled at
  // finalization carries the time its suspect record arrived (the
  // install, the ack or the failover), not the time of check().
  SimTime at = 0;
};

const char* violation_name(Violation::Kind kind);

class ConsistencyOracle final : public HistorySink {
 public:
  // `clock` (read only) stamps each violation with the sim time it was
  // detected; without one every stamp is 0.
  explicit ConsistencyOracle(const sim::EventLoop* clock = nullptr)
      : clock_(clock) {}

  // ---- hooks (never schedule events, never draw randomness) ----
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

  // ---- verdict ----

  // Every violation detected so far, plus what finalization decides from
  // the pending records: lost writes, phantom installs, replayed commits
  // and durability at failovers.  Const and repeatable.
  std::vector<Violation> check() const;
  // Human-readable counterexample listing (at most `max_violations`), with
  // the sim time of detection and the key's newest installs.
  std::string report(const std::vector<Violation>& violations,
                     size_t max_violations = 10) const;

  size_t installs_recorded() const { return installs_; }
  size_t reads_recorded() const { return reads_; }
  size_t commits_recorded() const { return commits_; }
  // Commit-phase txns that were never acked but did install somewhere:
  // the documented torn-abort outcome (allowed, but worth surfacing).
  size_t torn_aborts() const;
  // Read records held for transactions that have not completed yet.
  size_t pending_reads() const { return pending_reads_; }
  // Reads by a transaction more than kRetainedCompletions completions
  // after its own.  Provenance, value, promise and causal order are
  // checked as for any read; repeatable reads and the snapshot window are
  // not, since the transaction's versions read are gone.  Not violations.
  size_t unplaced_reads() const { return unplaced_reads_; }

  // Completed transactions whose versions read are kept, oldest dropped
  // first, for checking ghost reads that arrive after completion.
  static constexpr size_t kRetainedCompletions = 1024;

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  // Partition of a placeholder entry: it holds the registers of reads at a
  // timestamp nothing installed (already reported as unexplained).
  static constexpr PartitionId kUninstalled = UINT32_MAX;
  // Bound on the dense key space the per-key head index covers.
  static constexpr Key kMaxKeys = Key{1} << 28;
  // Room for the versions a six-function paper DAG reads (two per
  // function) in one allocation.
  static constexpr size_t kSeenReserve = 16;

  struct Register {
    Timestamp ts = Timestamp::min();
    TxnId txn = 0;
    void raise(Timestamp t, TxnId by) {
      if (t > ts) *this = Register{t, by};
    }
  };
  // One installed version (or placeholder) of a key.  Entries live in
  // versions_, in record order, so an index is also an install sequence
  // number; each key's entries form a chain from its newest timestamp
  // down (newest record first among equal timestamps).
  struct Version {
    Timestamp ts;
    uint64_t value_hash;
    TxnId txn;
    Register promise;  // highest promise any read of this version received
    Register low;      // highest snapshot low of a completed reader
    PartitionId partition;
    uint32_t below;  // next entry down the key's chain; kNone at the bottom
  };
  // A position in a key's chain: the first entry at or below a timestamp,
  // the entry linking to it and the lowest installed entry above it.
  struct Cursor {
    uint32_t prev = kNone;
    uint32_t at = kNone;
    uint32_t succ = kNone;
  };

  // A version index with its key, for records settled at finalization,
  // stamped with the time the record became suspect.
  struct Pending {
    uint32_t version;
    Key key;
    SimTime at;
  };

  // What a transaction holds until its ack and completion settle it.
  struct Open {
    Timestamp max_read = Timestamp::min();  // causal order at the ack
    Key max_read_key = 0;
    std::vector<Key> write_keys;    // lost-write check at the ack
    std::vector<Pending> installs;  // replay check at the ack
    // Distinct versions read; kept until the txn retires (ghost reads).
    std::vector<std::pair<Key, Timestamp>> seen;
    std::vector<std::pair<uint64_t, Key>> writes;  // (fn, key) buffered
    std::vector<Violation> flips;  // non-repeatable reads, due at completion
  };
  enum TxnFlag : uint8_t {
    kPhase = 1,
    kAcked = 2,
    kCompleted = 4,
    kInstalled = 8,
    kRetired = 16,  // completed, and its versions read were dropped
  };
  struct Txn {
    Timestamp commit_ts = Timestamp::min();
    std::unique_ptr<Open> open;
    uint8_t flags = 0;
  };

  struct Handoff {
    PartitionId partition;
    Timestamp floor;
    uint32_t mark;  // versions_ size at handoff; earlier installs exempt
    // Sorted keys the floor is scoped to; empty = every key (joiner path,
    // whose store was empty before the handoff).
    std::vector<Key> keys;
  };
  struct Session {
    Timestamp last;
    size_t steps = 0;
  };

  SimTime now() const { return clock_ != nullptr ? clock_->now() : 0; }
  void flag(Violation::Kind kind, TxnId txn, Key key, std::string detail);
  bool installed(uint32_t v) const {
    return versions_[v].partition != kUninstalled;
  }

  uint32_t head(Key key) const;
  uint32_t& head_slot(Key key);
  Cursor seek(Key key, Timestamp ts) const;
  // Links a new entry at `c` (from seek of its timestamp); returns its index.
  uint32_t link(Key key, const Cursor& c, const Version& v);
  // The oldest install of exactly (key, ts), or kNone; oldest_install
  // starts from the chain entry `e` seek(key, ts) found.
  uint32_t find_install(Key key, Timestamp ts) const;
  uint32_t oldest_install(uint32_t e, Timestamp ts) const;
  Open& open_of(Txn& t);
  void settle_ack(TxnId id, Txn& t);
  void suspect_replay(const Pending& install);
  Violation replay_violation(const Pending& install) const;
  Violation durability_violation(const Pending& install) const;
  void check_window(TxnId txn, const Open& o);
  void retire(TxnId txn);
  void drop_open_if_settled(Txn& t);

  const sim::EventLoop* clock_;
  std::deque<Version> versions_;
  std::vector<uint32_t> heads_;  // per key: its chain's newest entry
  std::unordered_map<TxnId, Txn> txns_;
  std::deque<TxnId> retained_;  // completed, not yet retired, oldest first
  std::vector<Handoff> handoffs_;
  // Per partition: versions_ size at its first and its latest failover.
  struct FailoverMarks {
    uint32_t first;
    uint32_t last;
  };
  std::map<PartitionId, FailoverMarks> failovers_;
  std::vector<Pending> pending_phantoms_;
  std::vector<Pending> pending_replays_;
  std::vector<Pending> pending_durability_;
  struct LostCandidate {
    TxnId txn;
    Key key;
    Timestamp commit_ts;
    SimTime at;  // the ack
  };
  std::vector<LostCandidate> pending_lost_;
  // Ordered for deterministic violation output.
  std::map<uint64_t, Session> sessions_;
  std::vector<Violation> violations_;
  size_t installs_ = 0;
  size_t reads_ = 0;
  size_t commits_ = 0;
  size_t pending_reads_ = 0;
  size_t unplaced_reads_ = 0;
  uint64_t next_fn_ = 0;
};

}  // namespace faastcc::check
