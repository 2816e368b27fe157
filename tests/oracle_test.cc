// Unit tests for the consistency oracle: synthetic histories drive every
// violation kind, and a clean end-to-end history checks empty.  The
// cluster-level tests (tcc_properties_test, robustness_test) then confirm
// the real protocol stack feeds the oracle the right records.
#include <gtest/gtest.h>

#include "check/oracle.h"
#include "sim/event_loop.h"

namespace faastcc::check {
namespace {

using Kind = Violation::Kind;

bool has_kind(const std::vector<Violation>& vs, Kind k) {
  for (const auto& v : vs) {
    if (v.kind == k) return true;
  }
  return false;
}

Timestamp ts(uint64_t us) { return Timestamp(us, 0, 0); }

// A correctly-acked writer txn: phase, install, ack.  Keeps auxiliary
// versions in test histories from tripping the phantom/lost-write checks.
void committed_write(ConsistencyOracle& o, TxnId txn, Key key, Timestamp ct,
                     const Value& v, Timestamp dep = Timestamp::min()) {
  o.on_commit_phase(txn, {key});
  o.on_install(0, key, ct, txn, v);
  o.on_commit_ack(txn, ct, dep);
  o.on_txn_complete(txn);
}

TEST(Oracle, CleanHistoryHasNoViolations) {
  ConsistencyOracle o;
  o.on_preload(1, ts(1), "init");
  o.on_preload(2, ts(1), "init");

  const TxnId txn = 100;
  const uint64_t fn = o.register_function(txn);
  o.on_read(txn, fn, 1, ts(1), ts(10), "init");
  o.on_write(txn, fn, 2, "v2");
  o.on_commit_phase(txn, {2});
  o.on_install(0, 2, ts(20), txn, "v2");
  o.on_commit_ack(txn, ts(20), ts(1));
  o.on_txn_complete(txn);
  o.on_session_commit(0, ts(20));

  EXPECT_TRUE(o.check().empty());
  EXPECT_EQ(o.installs_recorded(), 3u);
  EXPECT_EQ(o.reads_recorded(), 1u);
  EXPECT_EQ(o.commits_recorded(), 1u);
  EXPECT_EQ(o.torn_aborts(), 0u);
}

TEST(Oracle, AckedCommitWithoutInstallIsLostWrite) {
  ConsistencyOracle o;
  o.on_commit_phase(5, {7});
  o.on_commit_ack(5, ts(20), ts(1));
  EXPECT_TRUE(has_kind(o.check(), Kind::kLostWrite));
}

TEST(Oracle, TwoInstallsAtOneTimestampIsDuplicate) {
  ConsistencyOracle o;
  o.on_commit_phase(5, {1});
  o.on_install(0, 1, ts(5), 5, "a");
  o.on_install(0, 1, ts(5), 5, "a");
  o.on_commit_ack(5, ts(5), ts(1));
  EXPECT_TRUE(has_kind(o.check(), Kind::kDuplicateInstall));
}

TEST(Oracle, ReplayedCommitMintingSecondVersionIsDuplicate) {
  // The MvStore is idempotent for an exact (key, ts) replay; the dangerous
  // replay is a fast-path commit re-run that mints a NEW timestamp.  The
  // oracle flags any install by an acked txn away from its commit ts.
  ConsistencyOracle o;
  o.on_commit_phase(6, {1});
  o.on_install(0, 1, ts(5), 6, "a");
  o.on_install(0, 1, ts(9), 6, "a");
  o.on_commit_ack(6, ts(5), ts(1));
  EXPECT_TRUE(has_kind(o.check(), Kind::kDuplicateInstall));
}

TEST(Oracle, InstallWithoutCommitPhaseIsPhantom) {
  ConsistencyOracle o;
  o.on_install(0, 1, ts(5), 999, "a");
  EXPECT_TRUE(has_kind(o.check(), Kind::kPhantomInstall));
}

TEST(Oracle, CommitNotAboveDepIsCausalViolation) {
  ConsistencyOracle o;
  o.on_commit_phase(7, {1});
  o.on_install(0, 1, ts(5), 7, "a");
  o.on_commit_ack(7, ts(5), ts(5));  // commit_ts == dep_ts
  EXPECT_TRUE(has_kind(o.check(), Kind::kCausalOrder));
}

TEST(Oracle, CommitNotAboveReadTsIsCausalViolation) {
  ConsistencyOracle o;
  committed_write(o, 300, 1, ts(30), "a");
  const TxnId txn = 8;
  const uint64_t fn = o.register_function(txn);
  o.on_read(txn, fn, 1, ts(30), ts(30), "a");
  o.on_commit_phase(txn, {2});
  o.on_install(0, 2, ts(25), txn, "b");
  o.on_commit_ack(txn, ts(25), ts(1));  // commit below what it read
  o.on_txn_complete(txn);
  EXPECT_TRUE(has_kind(o.check(), Kind::kCausalOrder));
}

TEST(Oracle, InstallInsidePromiseWindowIsUnsound) {
  ConsistencyOracle o;
  o.on_preload(1, ts(1), "init");
  committed_write(o, 300, 1, ts(8), "new");
  const TxnId txn = 9;
  const uint64_t fn = o.register_function(txn);
  // Promise covers ts 9 but a version landed at ts 8: unsound.
  o.on_read(txn, fn, 1, ts(1), ts(9), "init");
  EXPECT_TRUE(has_kind(o.check(), Kind::kUnsoundPromise));
}

TEST(Oracle, SoundPromiseBelowSuccessorIsFine) {
  ConsistencyOracle o;
  o.on_preload(1, ts(1), "init");
  committed_write(o, 300, 1, ts(8), "new");
  const TxnId txn = 9;
  const uint64_t fn = o.register_function(txn);
  o.on_read(txn, fn, 1, ts(1), ts(7), "init");
  o.on_txn_complete(txn);
  EXPECT_TRUE(o.check().empty());
}

TEST(Oracle, NoSingleSnapshotExplainsReadsIsEmptyWindow) {
  ConsistencyOracle o;
  o.on_preload(1, ts(1), "init");
  o.on_preload(2, ts(1), "init");
  committed_write(o, 300, 2, ts(8), "new2");
  committed_write(o, 301, 1, ts(10), "new1");
  const TxnId txn = 200;
  const uint64_t fn = o.register_function(txn);
  // Read key 1 at ts 10 (snapshot >= 10) but key 2 at ts 1 with a version
  // at ts 8 it did not see (snapshot <= 7): no snapshot explains both.
  o.on_read(txn, fn, 1, ts(10), ts(10), "new1");
  o.on_read(txn, fn, 2, ts(1), ts(5), "init");
  o.on_txn_complete(txn);
  EXPECT_TRUE(has_kind(o.check(), Kind::kEmptySnapshotWindow));
}

TEST(Oracle, ReadOfUninstalledVersionIsUnexplained) {
  ConsistencyOracle o;
  const TxnId txn = 10;
  const uint64_t fn = o.register_function(txn);
  o.on_read(txn, fn, 9, ts(3), ts(3), "ghost");
  EXPECT_TRUE(has_kind(o.check(), Kind::kUnexplainedRead));
}

TEST(Oracle, ReadValueDifferingFromInstallIsMismatch) {
  ConsistencyOracle o;
  o.on_preload(1, ts(1), "init");
  const TxnId txn = 11;
  const uint64_t fn = o.register_function(txn);
  o.on_read(txn, fn, 1, ts(1), ts(1), "other");
  EXPECT_TRUE(has_kind(o.check(), Kind::kValueMismatch));
}

TEST(Oracle, TwoVersionsOfOneKeyIsNonRepeatable) {
  ConsistencyOracle o;
  o.on_preload(1, ts(1), "init");
  committed_write(o, 300, 1, ts(5), "new");
  const TxnId txn = 12;
  const uint64_t fn = o.register_function(txn);
  o.on_read(txn, fn, 1, ts(1), ts(2), "init");
  o.on_read(txn, fn, 1, ts(5), ts(5), "new");
  o.on_txn_complete(txn);
  EXPECT_TRUE(has_kind(o.check(), Kind::kNonRepeatableRead));
}

TEST(Oracle, CacheReadAfterOwnWriteIsReadYourWritesViolation) {
  ConsistencyOracle o;
  o.on_preload(1, ts(1), "init");
  const TxnId txn = 13;
  const uint64_t fn = o.register_function(txn);
  o.on_write(txn, fn, 1, "mine");
  o.on_read(txn, fn, 1, ts(1), ts(1), "init");
  EXPECT_TRUE(has_kind(o.check(), Kind::kReadYourWrites));
}

TEST(Oracle, SessionTimestampRegressionIsViolation) {
  ConsistencyOracle o;
  o.on_session_commit(3, ts(10));
  o.on_session_commit(3, ts(5));
  EXPECT_TRUE(has_kind(o.check(), Kind::kSessionOrder));
}

TEST(Oracle, IncompleteTxnSkipsSnapshotChecks) {
  // A txn that aborted mid-DAG may legitimately hold reads no snapshot
  // explains; only completed txns are held to the snapshot contract.
  ConsistencyOracle o;
  o.on_preload(1, ts(1), "init");
  o.on_preload(2, ts(1), "init");
  committed_write(o, 300, 2, ts(8), "new2");
  committed_write(o, 301, 1, ts(10), "new1");
  const TxnId txn = 201;
  const uint64_t fn = o.register_function(txn);
  o.on_read(txn, fn, 1, ts(10), ts(10), "new1");
  o.on_read(txn, fn, 2, ts(1), ts(5), "init");
  // No on_txn_complete: the DAG aborted.
  EXPECT_FALSE(has_kind(o.check(), Kind::kEmptySnapshotWindow));
}

TEST(Oracle, TornAbortIsSurfacedButNotAViolation) {
  ConsistencyOracle o;
  o.on_commit_phase(14, {1, 2});
  o.on_install(0, 1, ts(5), 14, "a");
  // Partition holding key 2 never got the commit; coordinator gave up.
  EXPECT_EQ(o.torn_aborts(), 1u);
  EXPECT_TRUE(o.check().empty());
}

TEST(Oracle, TornAbortsCountTransactionsNotInstalls) {
  ConsistencyOracle o;
  for (TxnId txn = 1; txn <= 300; ++txn) {
    o.on_commit_phase(txn, {txn, txn + 1000});
    o.on_install(0, txn, ts(5), txn, "a");
    o.on_install(1, txn + 1000, ts(5), txn, "a");
    if (txn % 3 == 0) o.on_commit_ack(txn, ts(5), ts(1));
  }
  EXPECT_EQ(o.torn_aborts(), 200u);
  EXPECT_EQ(o.commits_recorded(), 100u);
}

// ---- late evidence: the violating install arrives after the read ----

TEST(Oracle, InstallLandingInAnEarlierPromiseWindowIsUnsound) {
  ConsistencyOracle o;
  o.on_preload(1, ts(1), "init");
  const TxnId txn = 9;
  const uint64_t fn = o.register_function(txn);
  o.on_read(txn, fn, 1, ts(1), ts(9), "init");
  o.on_txn_complete(txn);
  EXPECT_TRUE(o.check().empty());
  // The promise said key 1 @ 1 holds until 9; a version at 8 lands later.
  committed_write(o, 300, 1, ts(8), "new");
  const auto vs = o.check();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].kind, Kind::kUnsoundPromise);
  EXPECT_EQ(vs[0].txn, txn);
}

TEST(Oracle, InstallAboveThePromiseButBelowTheSnapshotEmptiesTheWindow) {
  ConsistencyOracle o;
  o.on_preload(1, ts(1), "init");
  o.on_preload(2, ts(1), "init");
  committed_write(o, 300, 1, ts(10), "new1");
  const TxnId txn = 200;
  const uint64_t fn = o.register_function(txn);
  // Snapshot >= 10 (key 1); key 2 @ 1 is promised only until 5.
  o.on_read(txn, fn, 1, ts(10), ts(10), "new1");
  o.on_read(txn, fn, 2, ts(1), ts(5), "init");
  o.on_txn_complete(txn);
  EXPECT_TRUE(o.check().empty());
  // A version of key 2 at 8 is past the promise, yet inside the snapshot
  // the completed transaction already committed to: no snapshot explains
  // both reads any more.
  committed_write(o, 301, 2, ts(8), "new2");
  const auto vs = o.check();
  ASSERT_EQ(vs.size(), 1u);
  EXPECT_EQ(vs[0].kind, Kind::kEmptySnapshotWindow);
  EXPECT_EQ(vs[0].txn, txn);
  // Above the snapshot, a newer version is fine.
  committed_write(o, 302, 1, ts(12), "newer1");
  EXPECT_EQ(o.check().size(), 1u);
}

TEST(Oracle, CompletedTransactionLeavesNoPendingReads) {
  ConsistencyOracle o;
  o.on_preload(1, ts(1), "init");
  o.on_preload(2, ts(1), "init");
  const TxnId txn = 12;
  const uint64_t f1 = o.register_function(txn);
  const uint64_t f2 = o.register_function(txn);
  o.on_read(txn, f1, 1, ts(1), ts(4), "init");
  o.on_read(txn, f2, 1, ts(1), ts(4), "init");  // same version: one record
  o.on_read(txn, f2, 2, ts(1), ts(4), "init");
  EXPECT_EQ(o.pending_reads(), 2u);
  o.on_write(txn, f2, 2, "v");
  o.on_commit_phase(txn, {2});
  o.on_install(0, 2, ts(6), txn, "v");
  o.on_commit_ack(txn, ts(6), ts(1));
  EXPECT_EQ(o.pending_reads(), 2u);
  o.on_txn_complete(txn);
  EXPECT_EQ(o.pending_reads(), 0u);
  EXPECT_TRUE(o.check().empty()) << o.report(o.check());
  EXPECT_EQ(o.reads_recorded(), 3u);
}

TEST(Oracle, GhostReadAfterCompletionIsCheckedAgainstItsSnapshot) {
  ConsistencyOracle o;
  o.on_preload(1, ts(1), "init");
  committed_write(o, 300, 1, ts(5), "new");
  const TxnId txn = 13;
  const uint64_t fn = o.register_function(txn);
  o.on_read(txn, fn, 1, ts(1), ts(4), "init");
  o.on_txn_complete(txn);
  // A duplicated trigger re-ran a function after the commit: repeating
  // the version read is fine, a different one is not.
  const uint64_t ghost = o.register_function(txn);
  o.on_read(txn, ghost, 1, ts(1), ts(4), "init");
  EXPECT_TRUE(o.check().empty());
  o.on_read(txn, ghost, 1, ts(5), ts(5), "new");
  EXPECT_TRUE(has_kind(o.check(), Kind::kNonRepeatableRead));
}

// Past the retention window a ghost read can no longer be placed in its
// transaction's snapshot: it is counted, never reported as a
// non-repeatable read, and still checked on its own.
TEST(Oracle, ReadAfterRetirementIsCountedNotFlagged) {
  ConsistencyOracle o;
  o.on_preload(1, ts(1), "init");
  committed_write(o, 300, 1, ts(5), "new");
  const TxnId txn = 13;
  const uint64_t fn = o.register_function(txn);
  o.on_read(txn, fn, 1, ts(1), ts(4), "init");
  o.on_txn_complete(txn);
  TxnId later = 1000;
  while (later < 1000 + ConsistencyOracle::kRetainedCompletions - 1) {
    o.on_txn_complete(later++);
  }
  const uint64_t ghost = o.register_function(txn);
  o.on_read(txn, ghost, 1, ts(1), ts(4), "init");  // the same version
  EXPECT_EQ(o.unplaced_reads(), 0u);  // txn 13 is the oldest retained
  o.on_txn_complete(later);           // and now it retires
  o.on_read(txn, ghost, 1, ts(1), ts(4), "init");  // the same version
  o.on_read(txn, ghost, 1, ts(5), ts(5), "new");   // another version
  EXPECT_EQ(o.unplaced_reads(), 2u);
  EXPECT_EQ(o.pending_reads(), 0u);
  EXPECT_TRUE(o.check().empty()) << o.report(o.check());
  EXPECT_NE(o.report({}).find("2 late reads unplaced"), std::string::npos);
  // Provenance and value are still checked.
  o.on_read(txn, ghost, 1, ts(5), ts(5), "forged");
  EXPECT_TRUE(has_kind(o.check(), Kind::kValueMismatch));
  EXPECT_FALSE(has_kind(o.check(), Kind::kNonRepeatableRead));
}

TEST(Oracle, ViolationsAreStampedWithDetectionTime) {
  sim::EventLoop loop;
  ConsistencyOracle o(&loop);
  o.on_preload(1, ts(1), "init");
  const TxnId txn = 9;
  const uint64_t fn = o.register_function(txn);
  o.on_read(txn, fn, 1, ts(1), ts(9), "init");
  loop.run_until(milliseconds(7));
  committed_write(o, 300, 1, ts(8), "new");
  loop.run_until(milliseconds(12));
  // A lost write is settled only by check(), but it is stamped with the
  // ack that claimed the write.
  o.on_commit_phase(5, {7});
  o.on_commit_ack(5, ts(20), ts(1));
  loop.run_until(milliseconds(30));
  const auto vs = o.check();
  ASSERT_EQ(vs.size(), 2u);
  EXPECT_EQ(vs[0].kind, Kind::kUnsoundPromise);
  EXPECT_EQ(vs[0].at, milliseconds(7));
  EXPECT_EQ(vs[1].kind, Kind::kLostWrite);
  EXPECT_EQ(vs[1].at, milliseconds(12));
  EXPECT_NE(o.report(vs).find("at 7.000 ms"), std::string::npos);
}

TEST(Oracle, ReportNamesTheViolation) {
  ConsistencyOracle o;
  o.on_commit_phase(5, {7});
  o.on_commit_ack(5, ts(20), ts(1));
  const auto vs = o.check();
  ASSERT_FALSE(vs.empty());
  const std::string r = o.report(vs);
  EXPECT_NE(r.find("lost-write"), std::string::npos);
}

}  // namespace
}  // namespace faastcc::check
