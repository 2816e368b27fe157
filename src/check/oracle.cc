#include "check/oracle.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>

namespace faastcc::check {

uint64_t hash_value(const Value& v) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (const char c : v.view()) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

const char* violation_name(Violation::Kind kind) {
  switch (kind) {
    case Violation::Kind::kLostWrite: return "lost-write";
    case Violation::Kind::kDuplicateInstall: return "duplicate-install";
    case Violation::Kind::kPhantomInstall: return "phantom-install";
    case Violation::Kind::kCausalOrder: return "causal-order";
    case Violation::Kind::kUnsoundPromise: return "unsound-promise";
    case Violation::Kind::kEmptySnapshotWindow: return "empty-snapshot-window";
    case Violation::Kind::kUnexplainedRead: return "unexplained-read";
    case Violation::Kind::kValueMismatch: return "value-mismatch";
    case Violation::Kind::kNonRepeatableRead: return "non-repeatable-read";
    case Violation::Kind::kReadYourWrites: return "read-your-writes";
    case Violation::Kind::kSessionOrder: return "session-order";
    case Violation::Kind::kHandoffFloor: return "handoff-floor";
    case Violation::Kind::kDurabilityLoss: return "durability-loss";
  }
  return "?";
}

void ConsistencyOracle::flag(Violation::Kind kind, TxnId txn, Key key,
                             std::string detail) {
  violations_.push_back(Violation{kind, txn, key, std::move(detail), now()});
}

// ---- install chains ---------------------------------------------------------

uint32_t ConsistencyOracle::head(Key key) const {
  return key < heads_.size() ? heads_[key] : kNone;
}

uint32_t& ConsistencyOracle::head_slot(Key key) {
  // Keys are dense (common/types.h), so the head index stays as small as
  // the key space; a stray huge key would balloon it.
  assert(key < kMaxKeys);
  if (key >= heads_.size()) heads_.resize(key + 1, kNone);
  return heads_[key];
}

ConsistencyOracle::Cursor ConsistencyOracle::seek(Key key,
                                                  Timestamp ts) const {
  Cursor c;
  for (c.at = head(key); c.at != kNone && versions_[c.at].ts > ts;
       c.at = versions_[c.at].below) {
    if (installed(c.at)) c.succ = c.at;
    c.prev = c.at;
  }
  return c;
}

uint32_t ConsistencyOracle::link(Key key, const Cursor& c, const Version& v) {
  const auto idx = static_cast<uint32_t>(versions_.size());
  versions_.push_back(v);
  versions_.back().below = c.at;
  (c.prev == kNone ? head_slot(key) : versions_[c.prev].below) = idx;
  return idx;
}

uint32_t ConsistencyOracle::oldest_install(uint32_t e, Timestamp ts) const {
  // The oldest record at ts is the last one down the chain.
  uint32_t found = kNone;
  for (; e != kNone && versions_[e].ts == ts; e = versions_[e].below) {
    if (installed(e)) found = e;
  }
  return found;
}

uint32_t ConsistencyOracle::find_install(Key key, Timestamp ts) const {
  return oldest_install(seek(key, ts).at, ts);
}

// ---- hooks ------------------------------------------------------------------

void ConsistencyOracle::on_install(PartitionId partition, Key key,
                                   Timestamp ts, TxnId txn,
                                   const Value& value) {
  ++installs_;
  const uint64_t hash = hash_value(value);
  const auto idx = static_cast<uint32_t>(versions_.size());
  const Cursor c = seek(key, ts);

  // Duplicate: the newest earlier install of the same (key, ts), unless
  // it is an exact re-materialization across a failover of its partition —
  // a coordinator retry re-applying a version the dead leader could no
  // longer dedup (the store's (key, ts) idempotence means no twin exists).
  uint32_t twin = kNone;
  for (uint32_t e = c.at; e != kNone && versions_[e].ts == ts;
       e = versions_[e].below) {
    if (installed(e)) {
      twin = e;
      break;
    }
  }
  if (twin != kNone) {
    const Version& t = versions_[twin];
    auto f = failovers_.find(partition);
    const bool rematerialized =
        t.partition == partition && t.txn == txn && t.value_hash == hash &&
        f != failovers_.end() && f->second.last > twin;
    if (!rematerialized) {
      std::ostringstream os;
      os << "key " << key << " installed twice at " << ts.to_string()
         << " (txn " << t.txn << " then txn " << txn << ")";
      flag(Violation::Kind::kDuplicateInstall, txn, key, os.str());
    }
  } else {
    // The new version becomes the successor of every read folded into the
    // entries between it and the highest install below it.  A register at
    // or above ts means one of those reads was promised, or snapshotted,
    // past the version now landing inside its window.
    uint32_t e = c.at;
    while (e != kNone && versions_[e].ts == ts) e = versions_[e].below;
    Timestamp floor_ts = Timestamp::min();
    bool below_found = false;
    for (; e != kNone; e = versions_[e].below) {
      const Version& v = versions_[e];
      if (below_found && v.ts < floor_ts) break;
      if (!below_found && installed(e)) {
        below_found = true;
        floor_ts = v.ts;
      }
      if (v.promise.ts >= ts) {
        std::ostringstream os;
        os << "txn " << v.promise.txn << " was promised key " << key << " @ "
           << v.ts.to_string() << " holds until " << v.promise.ts.to_string()
           << " but txn " << txn << " installed a successor @ "
           << ts.to_string();
        flag(Violation::Kind::kUnsoundPromise, v.promise.txn, key, os.str());
      }
      if (v.low.ts >= ts) {
        std::ostringstream os;
        os << "txn " << v.low.txn << ": no snapshot explains all reads (key "
           << key << " @ " << v.ts.to_string() << " was read by a snapshot >= "
           << v.low.ts.to_string() << " but is overwritten by "
           << ts.to_string() << ")";
        flag(Violation::Kind::kEmptySnapshotWindow, v.low.txn, key, os.str());
      }
    }
  }

  // Handoff floors: a joiner never installs at or below its floor.  The
  // floor covers every promise the sources issued for the migrated keys.
  for (const Handoff& h : handoffs_) {
    if (h.partition != partition || ts > h.floor) continue;
    // A keyed handoff (scale-in survivor) scopes the floor to the migrated
    // chains; pre-owned keys are allowed below it.
    if (!h.keys.empty() &&
        !std::binary_search(h.keys.begin(), h.keys.end(), key)) {
      continue;
    }
    // Exact re-materialization of an install recorded before the handoff:
    // the version existed before the floor was sealed, so no promise is
    // endangered.
    bool rematerialization = false;
    for (uint32_t e = c.at; e != kNone && versions_[e].ts == ts;
         e = versions_[e].below) {
      const Version& v = versions_[e];
      if (e < h.mark && v.partition == partition && v.txn == txn &&
          v.value_hash == hash) {
        rematerialization = true;
        break;
      }
    }
    if (rematerialization) continue;
    std::ostringstream os;
    os << "partition " << h.partition << " joined with handoff floor "
       << h.floor.to_string() << " but later installed key " << key << " @ "
       << ts.to_string() << " (txn " << txn << ")";
    flag(Violation::Kind::kHandoffFloor, txn, key, os.str());
  }

  link(key, c, Version{ts, hash, txn, {}, {}, partition, kNone});
  if (txn == 0) return;  // preload

  Txn& t = txns_[txn];
  t.flags |= kInstalled;
  const Pending ins{idx, key, now()};
  // The commit-phase hook may still arrive; settled by check().
  if ((t.flags & kPhase) == 0) pending_phantoms_.push_back(ins);
  if ((t.flags & kAcked) != 0) {
    if (ts != t.commit_ts) suspect_replay(ins);
  } else {
    open_of(t).installs.push_back(ins);
  }
}

void ConsistencyOracle::on_preload(Key key, Timestamp ts, const Value& value) {
  on_install(0, key, ts, 0, value);
}

void ConsistencyOracle::on_commit_phase(TxnId txn,
                                        std::vector<Key> write_keys) {
  Txn& t = txns_[txn];
  t.flags |= kPhase;
  open_of(t).write_keys = std::move(write_keys);
}

void ConsistencyOracle::on_commit_ack(TxnId txn, Timestamp commit_ts,
                                      Timestamp dep_ts) {
  Txn& t = txns_[txn];
  if ((t.flags & kAcked) == 0) ++commits_;
  t.flags |= kAcked;
  t.commit_ts = commit_ts;
  if (commit_ts <= dep_ts) {
    std::ostringstream os;
    os << "txn " << txn << " commit ts " << commit_ts.to_string()
       << " <= dep ts " << dep_ts.to_string();
    flag(Violation::Kind::kCausalOrder, txn, 0, os.str());
  }
  settle_ack(txn, t);
}

void ConsistencyOracle::settle_ack(TxnId id, Txn& t) {
  if (!t.open) return;
  Open& o = *t.open;
  if (o.max_read >= t.commit_ts) {
    std::ostringstream os;
    os << "txn " << id << " commit ts " << t.commit_ts.to_string()
       << " <= read ts " << o.max_read.to_string() << " of key "
       << o.max_read_key;
    flag(Violation::Kind::kCausalOrder, id, o.max_read_key, os.str());
  }
  // Atomic visibility: every write must be installed at the commit ts.  A
  // write not installed yet may still arrive; check() decides.
  for (Key key : o.write_keys) {
    if (find_install(key, t.commit_ts) == kNone) {
      pending_lost_.push_back(LostCandidate{id, key, t.commit_ts, now()});
    }
  }
  // A replayed commit minting a second version: an acked txn installs
  // only at its acked commit timestamp.
  for (Pending ins : o.installs) {
    ins.at = now();  // suspect from the ack on
    if (versions_[ins.version].ts != t.commit_ts) suspect_replay(ins);
  }
  o.write_keys = {};
  o.installs = {};
  drop_open_if_settled(t);
}

void ConsistencyOracle::suspect_replay(const Pending& ins) {
  // Installs that predate a failover of their partition are exempt: a
  // fast-path commit installed by the old leader but never acked dies with
  // its store, and the coordinator's retry legitimately re-executes at a
  // fresh timestamp on the promoted leader.  A failover may still come.
  auto f = failovers_.find(versions_[ins.version].partition);
  if (f == failovers_.end()) {
    pending_replays_.push_back(ins);
  } else if (ins.version >= f->second.first) {
    violations_.push_back(replay_violation(ins));
  }
}

Violation ConsistencyOracle::replay_violation(const Pending& ins) const {
  const Version& v = versions_[ins.version];
  std::ostringstream os;
  os << "txn " << v.txn << " acked at "
     << txns_.at(v.txn).commit_ts.to_string() << " but also installed key "
     << ins.key << " @ " << v.ts.to_string()
     << " (replayed commit minted a second version)";
  return Violation{Violation::Kind::kDuplicateInstall, v.txn, ins.key,
                   os.str(), ins.at};
}

Violation ConsistencyOracle::durability_violation(
    const Pending& ins) const {
  const Version& v = versions_[ins.version];
  std::ostringstream os;
  os << "partition " << v.partition << " failed over but the promoted "
     << "leader lost key " << ins.key << " @ " << v.ts.to_string()
     << " (txn " << v.txn << ", commit was acked as durable)";
  return Violation{Violation::Kind::kDurabilityLoss, v.txn, ins.key, os.str(),
                   ins.at};
}

ConsistencyOracle::Open& ConsistencyOracle::open_of(Txn& t) {
  if (!t.open) t.open = std::make_unique<Open>();
  return *t.open;
}

void ConsistencyOracle::drop_open_if_settled(Txn& t) {
  const Open& o = *t.open;
  if ((t.flags & kRetired) != 0 && o.write_keys.empty() &&
      o.installs.empty()) {
    t.open.reset();
  }
}

void ConsistencyOracle::on_txn_complete(TxnId txn) {
  Txn& t = txns_[txn];
  if ((t.flags & kCompleted) != 0) return;
  t.flags |= kCompleted;
  // A ghost execution of one of the transaction's functions may still
  // read; its versions read stay for the next kRetainedCompletions
  // completions so such a read is checked against the same snapshot.
  retained_.push_back(txn);
  if (retained_.size() > kRetainedCompletions) {
    retire(retained_.front());
    retained_.pop_front();
  }
  if (!t.open) return;
  Open& o = *t.open;
  for (Violation& v : o.flips) {
    v.at = now();
    violations_.push_back(std::move(v));
  }
  check_window(txn, o);
  pending_reads_ -= o.seen.size();
  o.flips = {};
}

void ConsistencyOracle::retire(TxnId txn) {
  Txn& t = txns_.at(txn);
  t.flags |= kRetired;
  if (!t.open) return;
  t.open->seen = {};
  t.open->writes = {};
  drop_open_if_settled(t);
}

void ConsistencyOracle::check_window(TxnId txn, const Open& o) {
  // Snapshot validity / atomic visibility: some snapshot must see every
  // read version and none of their successors.  Version v of key k
  // explains snapshots in [v.ts, succ(k, v.ts) - 1]; the windows of a
  // transaction's reads must intersect.
  Timestamp lo = Timestamp::min();
  Timestamp hi = Timestamp::max();
  Key lo_key = 0, hi_key = 0;
  std::vector<uint32_t> read_entries;
  read_entries.reserve(o.seen.size());
  for (const auto& [key, ts] : o.seen) {
    const Cursor c = seek(key, ts);  // the read left an entry at ts
    read_entries.push_back(c.at);
    if (ts > lo) {
      lo = ts;
      lo_key = key;
    }
    const Timestamp w_hi =
        c.succ != kNone ? versions_[c.succ].ts.prev() : Timestamp::max();
    if (w_hi < hi) {
      hi = w_hi;
      hi_key = key;
    }
  }
  if (lo > hi) {
    std::ostringstream os;
    os << "txn " << txn << ": no snapshot explains all reads (key " << lo_key
       << " forces >= " << lo.to_string() << ", key " << hi_key
       << " is overwritten by " << hi.next().to_string() << ")";
    flag(Violation::Kind::kEmptySnapshotWindow, txn, lo_key, os.str());
  }
  // From here on, an install landing at or below `lo` just above a version
  // this transaction read empties its window: the low registers say so.
  for (uint32_t e : read_entries) versions_[e].low.raise(lo, txn);
}

uint64_t ConsistencyOracle::register_function(TxnId) { return ++next_fn_; }

void ConsistencyOracle::on_read(TxnId txn, uint64_t fn, Key key, Timestamp ts,
                                Timestamp promise, const Value& value) {
  ++reads_;
  const uint64_t hash = hash_value(value);
  Cursor c = seek(key, ts);
  if (ts != Timestamp::min()) {
    const uint32_t ins = oldest_install(c.at, ts);
    if (ins == kNone) {
      std::ostringstream os;
      os << "txn " << txn << " read key " << key << " @ " << ts.to_string()
         << " but no such version was installed";
      flag(Violation::Kind::kUnexplainedRead, txn, key, os.str());
    } else if (versions_[ins].value_hash != hash) {
      std::ostringstream os;
      os << "txn " << txn << " read key " << key << " @ " << ts.to_string()
         << " with a value different from the install";
      flag(Violation::Kind::kValueMismatch, txn, key, os.str());
    }
  }
  if (c.at == kNone || versions_[c.at].ts != ts) {
    c.at = link(key, c, Version{ts, hash, txn, {}, {}, kUninstalled, kNone});
  }
  // Promise soundness against the successor installed so far; later
  // installs are checked against the register this read raises.
  if (c.succ != kNone && versions_[c.succ].ts <= promise) {
    const Version& s = versions_[c.succ];
    std::ostringstream os;
    os << "txn " << txn << " was promised key " << key << " @ "
       << ts.to_string() << " holds until " << promise.to_string()
       << " but txn " << s.txn << " installed a successor @ "
       << s.ts.to_string();
    flag(Violation::Kind::kUnsoundPromise, txn, key, os.str());
  }
  versions_[c.at].promise.raise(promise, txn);

  Txn& t = txns_[txn];
  if ((t.flags & kAcked) != 0 && t.commit_ts <= ts) {
    std::ostringstream os;
    os << "txn " << txn << " commit ts " << t.commit_ts.to_string()
       << " <= read ts " << ts.to_string() << " of key " << key;
    flag(Violation::Kind::kCausalOrder, txn, key, os.str());
  }
  const bool completed = (t.flags & kCompleted) != 0;
  if ((t.flags & kRetired) != 0) {
    // A ghost read after the transaction's versions read were dropped: it
    // was checked on its own above, but neither a second version of a key
    // nor an empty snapshot window can be told from a repeat any more.
    ++unplaced_reads_;
    return;
  }
  Open& o = open_of(t);
  for (const auto& [wfn, wkey] : o.writes) {
    if (wfn == fn && wkey == key) {
      std::ostringstream os;
      os << "txn " << txn << " function " << fn << " cache-read key " << key
         << " after buffering a write to it";
      flag(Violation::Kind::kReadYourWrites, txn, key, os.str());
      break;
    }
  }
  if (!completed && ts > o.max_read) {
    o.max_read = ts;
    o.max_read_key = key;
  }
  const std::pair<Key, Timestamp> version(key, ts);
  if (std::find(o.seen.begin(), o.seen.end(), version) != o.seen.end()) {
    return;  // this version is already among the reads
  }
  // Repeatable reads: a transaction observes one version per key.  A flip
  // counts once the transaction completes; a ghost read after completion
  // (a duplicated trigger re-running a function) counts at once.
  for (auto it = o.seen.rbegin(); it != o.seen.rend(); ++it) {
    if (it->first != key) continue;
    std::ostringstream os;
    os << "txn " << txn << " observed key " << key << " @ "
       << it->second.to_string() << " and again @ " << ts.to_string();
    if (completed) {
      flag(Violation::Kind::kNonRepeatableRead, txn, key, os.str());
    } else {
      o.flips.push_back(
          Violation{Violation::Kind::kNonRepeatableRead, txn, key, os.str()});
    }
    break;
  }
  if (o.seen.empty()) o.seen.reserve(kSeenReserve);
  o.seen.push_back(version);
  if (completed) {
    check_window(txn, o);  // the ghost read must fit the same snapshot
  } else {
    ++pending_reads_;
  }
}

void ConsistencyOracle::on_write(TxnId txn, uint64_t fn, Key key,
                                 const Value&) {
  Txn& t = txns_[txn];
  if ((t.flags & kRetired) != 0) return;
  auto& writes = open_of(t).writes;
  const std::pair<uint64_t, Key> w(fn, key);
  if (std::find(writes.begin(), writes.end(), w) == writes.end()) {
    writes.push_back(w);
  }
}

void ConsistencyOracle::on_session_commit(uint64_t client_id,
                                          Timestamp session_ts) {
  Session& s = sessions_[client_id];
  if (s.steps > 0 && session_ts < s.last) {
    std::ostringstream os;
    os << "client " << client_id << " session ts regressed from "
       << s.last.to_string() << " to " << session_ts.to_string() << " at DAG "
       << s.steps;
    flag(Violation::Kind::kSessionOrder, 0, 0, os.str());
  }
  s.last = session_ts;
  ++s.steps;
}

void ConsistencyOracle::on_handoff(PartitionId partition, Timestamp floor) {
  handoffs_.push_back(Handoff{
      partition, floor, static_cast<uint32_t>(versions_.size()), {}});
}

void ConsistencyOracle::on_handoff(PartitionId partition, Timestamp floor,
                                   std::vector<Key> keys) {
  std::sort(keys.begin(), keys.end());
  handoffs_.push_back(Handoff{partition, floor,
                              static_cast<uint32_t>(versions_.size()),
                              std::move(keys)});
}

void ConsistencyOracle::on_failover(
    PartitionId partition, std::vector<std::pair<Key, Timestamp>> surviving) {
  std::sort(surviving.begin(), surviving.end());
  const auto mark = static_cast<uint32_t>(versions_.size());
  auto [f, first] =
      failovers_.try_emplace(partition, FailoverMarks{mark, mark});
  if (!first) f->second.last = mark;
  // Replay suspects at this partition predate its first failover.
  std::erase_if(pending_replays_, [&](const Pending& p) {
    return versions_[p.version].partition == partition;
  });

  // Durability: the commit ack asserted the writes were durable at f+1, so
  // the promoted follower must hold every acked version this partition
  // installed.  Only the acked commit timestamp's version is owed (an
  // install at another timestamp is a never-acked attempt that died with
  // the old leader and was re-executed).  A txn not acked yet may still be.
  const auto scan = [&](Key key, uint32_t head_entry) {
    for (uint32_t e = head_entry; e != kNone; e = versions_[e].below) {
      const Version& v = versions_[e];
      if (v.partition != partition || v.txn == 0) continue;
      if (std::binary_search(surviving.begin(), surviving.end(),
                             std::make_pair(key, v.ts))) {
        continue;
      }
      const Txn& t = txns_.at(v.txn);
      if ((t.flags & kAcked) == 0) {
        pending_durability_.push_back(Pending{e, key, now()});
      } else if (v.ts == t.commit_ts) {
        violations_.push_back(durability_violation(Pending{e, key, now()}));
      }
    }
  };
  for (Key k = 0; k < heads_.size(); ++k) scan(k, heads_[k]);
}

// ---- verdict ----------------------------------------------------------------

size_t ConsistencyOracle::torn_aborts() const {
  // Commit phase entered, never acked, but at least one install happened:
  // a participant applied its half before the coordinator gave up.
  size_t n = 0;
  for (const auto& [id, t] : txns_) {
    if ((t.flags & (kPhase | kAcked | kInstalled)) == (kPhase | kInstalled)) {
      ++n;
    }
  }
  return n;
}

std::vector<Violation> ConsistencyOracle::check() const {
  std::vector<Violation> out = violations_;
  const auto acked = [&](TxnId txn) -> const Txn* {
    auto it = txns_.find(txn);
    return it != txns_.end() && (it->second.flags & kAcked) != 0 ? &it->second
                                                                 : nullptr;
  };
  for (const Pending& p : pending_phantoms_) {
    const Version& v = versions_[p.version];
    if ((txns_.at(v.txn).flags & kPhase) != 0) continue;
    std::ostringstream os;
    os << "key " << p.key << " @ " << v.ts.to_string() << " installed by txn "
       << v.txn << " which never sent a commit phase";
    out.push_back(Violation{Violation::Kind::kPhantomInstall, v.txn, p.key,
                            os.str(), p.at});
  }
  for (const LostCandidate& l : pending_lost_) {
    if (find_install(l.key, l.commit_ts) != kNone) continue;
    std::ostringstream os;
    os << "txn " << l.txn << " acked at " << l.commit_ts.to_string()
       << " but its write to key " << l.key << " was never installed";
    out.push_back(
        Violation{Violation::Kind::kLostWrite, l.txn, l.key, os.str(), l.at});
  }
  for (const Pending& p : pending_replays_) {
    out.push_back(replay_violation(p));
  }
  for (const Pending& p : pending_durability_) {
    const Version& v = versions_[p.version];
    const Txn* t = acked(v.txn);
    if (t != nullptr && v.ts == t->commit_ts) {
      out.push_back(durability_violation(p));
    }
  }
  return out;
}

std::string ConsistencyOracle::report(const std::vector<Violation>& violations,
                                      size_t max_violations) const {
  std::ostringstream os;
  os << violations.size() << " violation(s); " << installs_ << " installs, "
     << reads_ << " reads, " << commits_ << " acked commits, "
     << torn_aborts() << " torn aborts";
  if (unplaced_reads_ > 0) {
    os << ", " << unplaced_reads_ << " late reads unplaced";
  }
  os << "\n";
  const size_t n = std::min(violations.size(), max_violations);
  for (size_t i = 0; i < n; ++i) {
    const Violation& v = violations[i];
    char when[32];
    std::snprintf(when, sizeof when, "%.3f", to_millis(v.at));
    os << "  [" << violation_name(v.kind) << "] at " << when << " ms: "
       << v.detail << "\n";
    // Minimal counterexample context: the key's newest installs.
    if (v.key != 0 || v.kind == Violation::Kind::kUnsoundPromise ||
        v.kind == Violation::Kind::kLostWrite) {
      size_t shown = 0;
      for (uint32_t e = head(v.key); e != kNone; e = versions_[e].below) {
        if (!installed(e)) continue;
        if (++shown > 6) {
          os << "      ...\n";
          break;
        }
        const Version& rec = versions_[e];
        os << "      install key " << v.key << " @ " << rec.ts.to_string()
           << " by txn " << rec.txn << " (partition " << rec.partition
           << ")\n";
      }
    }
  }
  if (violations.size() > n) {
    os << "  ... " << (violations.size() - n) << " more\n";
  }
  return os.str();
}

}  // namespace faastcc::check
