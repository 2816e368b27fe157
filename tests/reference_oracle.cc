// Reference model for the consistency oracle: the batch checker the
// online ConsistencyOracle replaced.  It keeps every install, read and
// write and rebuilds each key's history inside check(), so it is simple
// to audit and costs memory in proportion to the run.  Tests tee one run's
// history into both checkers (Cluster's `tap`) and require the same
// verdict and the same set of violation kinds.
#include "reference_oracle.h"

#include <algorithm>
#include <sstream>
#include <tuple>

namespace faastcc::check {

void ReferenceOracle::on_install(PartitionId partition, Key key,
                                   Timestamp ts, TxnId txn,
                                   const Value& value) {
  installs_.push_back(InstallRec{key, ts, txn, hash_value(value), partition});
}

void ReferenceOracle::on_preload(Key key, Timestamp ts, const Value& value) {
  installs_.push_back(InstallRec{
      key, ts, 0, hash_value(value),
      static_cast<PartitionId>(0)});
}

void ReferenceOracle::on_commit_phase(TxnId txn, std::vector<Key> write_keys) {
  auto& t = txns_[txn];
  t.phase_entered = true;
  t.write_keys = std::move(write_keys);
}

void ReferenceOracle::on_commit_ack(TxnId txn, Timestamp commit_ts,
                                      Timestamp dep_ts) {
  auto& t = txns_[txn];
  t.acked = true;
  t.commit_ts = commit_ts;
  t.dep_ts = dep_ts;
}

void ReferenceOracle::on_txn_complete(TxnId txn) {
  txns_[txn].completed = true;
}

uint64_t ReferenceOracle::register_function(TxnId) { return ++next_fn_; }

void ReferenceOracle::on_read(TxnId txn, uint64_t fn, Key key, Timestamp ts,
                              Timestamp promise, const Value& value) {
  reads_.push_back(
      ReadRec{txn, fn, key, ts, promise, hash_value(value), ++next_seq_});
}

void ReferenceOracle::on_write(TxnId txn, uint64_t fn, Key key,
                                 const Value& value) {
  writes_.push_back(WriteRec{txn, fn, key, hash_value(value), ++next_seq_});
}

void ReferenceOracle::on_session_commit(uint64_t client_id,
                                          Timestamp session_ts) {
  sessions_[client_id].push_back(session_ts);
}

void ReferenceOracle::on_handoff(PartitionId partition, Timestamp floor) {
  handoffs_.push_back(HandoffRec{partition, floor, installs_.size(), {}});
}

void ReferenceOracle::on_handoff(PartitionId partition, Timestamp floor,
                                   std::vector<Key> keys) {
  std::sort(keys.begin(), keys.end());
  handoffs_.push_back(
      HandoffRec{partition, floor, installs_.size(), std::move(keys)});
}

void ReferenceOracle::on_failover(
    PartitionId partition, std::vector<std::pair<Key, Timestamp>> surviving) {
  std::sort(surviving.begin(), surviving.end());
  failovers_.push_back(
      FailoverRec{partition, installs_.size(), std::move(surviving)});
}

std::vector<Violation> ReferenceOracle::check() const {
  std::vector<Violation> out;

  // Per-key install history, sorted by timestamp (record order breaks
  // ties so duplicate detection below is deterministic).
  std::map<Key, std::vector<const InstallRec*>> by_key;
  for (const auto& rec : installs_) by_key[rec.key].push_back(&rec);
  for (auto& [key, chain] : by_key) {
    std::stable_sort(
        chain.begin(), chain.end(),
        [](const InstallRec* a, const InstallRec* b) { return a->ts < b->ts; });
  }

  const auto find_install = [&](Key key, Timestamp ts) -> const InstallRec* {
    auto it = by_key.find(key);
    if (it == by_key.end()) return nullptr;
    const auto& chain = it->second;
    auto pos = std::lower_bound(
        chain.begin(), chain.end(), ts,
        [](const InstallRec* a, Timestamp t) { return a->ts < t; });
    return (pos != chain.end() && (*pos)->ts == ts) ? *pos : nullptr;
  };
  // First install of `key` strictly after `ts`; nullptr if none.
  const auto successor = [&](Key key, Timestamp ts) -> const InstallRec* {
    auto it = by_key.find(key);
    if (it == by_key.end()) return nullptr;
    const auto& chain = it->second;
    auto pos = std::upper_bound(
        chain.begin(), chain.end(), ts,
        [](Timestamp t, const InstallRec* a) { return t < a->ts; });
    return pos != chain.end() ? *pos : nullptr;
  };

  // Record index of an install (installs_ is contiguous, so pointer
  // arithmetic recovers the append order the failover/handoff records
  // snapshot).
  const auto index_of = [&](const InstallRec* rec) {
    return static_cast<size_t>(rec - installs_.data());
  };
  // True when `later` is an exact re-materialization across a failover of
  // its partition: an identical install (partition, key, ts, txn, value)
  // recorded before the promotion, re-applied after it by a coordinator
  // retry the dead leader could no longer dedup.  The repeat is sound —
  // the store's (key, ts) idempotence means no twin version exists, and
  // promises are re-validated by the per-read successor scan.
  const auto rematerialized = [&](const InstallRec* earlier,
                                  const InstallRec* later) {
    if (earlier->partition != later->partition ||
        earlier->key != later->key || earlier->ts != later->ts ||
        earlier->txn != later->txn ||
        earlier->value_hash != later->value_hash) {
      return false;
    }
    for (const auto& f : failovers_) {
      if (f.partition == later->partition &&
          index_of(earlier) < f.installs_before &&
          index_of(later) >= f.installs_before) {
        return true;
      }
    }
    return false;
  };
  // Earliest failover point per partition (installs before it died with
  // the old leader's store).
  std::map<PartitionId, size_t> first_failover_at;
  for (const auto& f : failovers_) {
    auto [it, inserted] = first_failover_at.emplace(f.partition,
                                                    f.installs_before);
    if (!inserted && f.installs_before < it->second) {
      it->second = f.installs_before;
    }
  }

  // --- duplicate installs: two installs of the same (key, ts). ---
  for (const auto& [key, chain] : by_key) {
    for (size_t i = 1; i < chain.size(); ++i) {
      if (chain[i]->ts == chain[i - 1]->ts) {
        if (rematerialized(chain[i - 1], chain[i])) continue;
        std::ostringstream os;
        os << "key " << key << " installed twice at " << chain[i]->ts.to_string()
           << " (txn " << chain[i - 1]->txn << " then txn " << chain[i]->txn
           << ")";
        out.push_back(Violation{Violation::Kind::kDuplicateInstall,
                                chain[i]->txn, key, os.str()});
      }
    }
  }

  // --- phantom installs: a txn that never entered the commit phase. ---
  for (const auto& rec : installs_) {
    if (rec.txn == 0) continue;  // preload
    auto it = txns_.find(rec.txn);
    if (it == txns_.end() || !it->second.phase_entered) {
      std::ostringstream os;
      os << "key " << rec.key << " @ " << rec.ts.to_string()
         << " installed by txn " << rec.txn
         << " which never sent a commit phase";
      out.push_back(Violation{Violation::Kind::kPhantomInstall, rec.txn,
                              rec.key, os.str()});
    }
  }

  // --- acked transactions: atomic visibility + causal order. ---
  std::vector<TxnId> txn_ids;
  txn_ids.reserve(txns_.size());
  for (const auto& [id, t] : txns_) txn_ids.push_back(id);
  std::sort(txn_ids.begin(), txn_ids.end());
  for (TxnId id : txn_ids) {
    const TxnRec& t = txns_.at(id);
    if (!t.acked) continue;
    for (Key key : t.write_keys) {
      if (find_install(key, t.commit_ts) == nullptr) {
        std::ostringstream os;
        os << "txn " << id << " acked at " << t.commit_ts.to_string()
           << " but its write to key " << key << " was never installed";
        out.push_back(
            Violation{Violation::Kind::kLostWrite, id, key, os.str()});
      }
    }
    if (t.commit_ts <= t.dep_ts) {
      std::ostringstream os;
      os << "txn " << id << " commit ts " << t.commit_ts.to_string()
         << " <= dep ts " << t.dep_ts.to_string();
      out.push_back(Violation{Violation::Kind::kCausalOrder, id, 0, os.str()});
    }
  }
  // A replayed commit minting a second version: an acked txn must install
  // only at its acked commit timestamp.  Installs that predate a failover
  // of their partition are exempt: a fast-path commit installed by the old
  // leader but never acked dies with its store, and the coordinator's
  // retry legitimately re-executes at a fresh timestamp on the promoted
  // leader (the stale version is unreachable, and the fresh one is above
  // every promise the dead leader's seals could have fed).
  for (const auto& rec : installs_) {
    if (rec.txn == 0) continue;
    if (auto ff = first_failover_at.find(rec.partition);
        ff != first_failover_at.end() &&
        index_of(&rec) < ff->second) {
      continue;
    }
    auto it = txns_.find(rec.txn);
    if (it != txns_.end() && it->second.acked &&
        rec.ts != it->second.commit_ts) {
      std::ostringstream os;
      os << "txn " << rec.txn << " acked at "
         << it->second.commit_ts.to_string() << " but also installed key "
         << rec.key << " @ " << rec.ts.to_string()
         << " (replayed commit minted a second version)";
      out.push_back(Violation{Violation::Kind::kDuplicateInstall, rec.txn,
                              rec.key, os.str()});
    }
  }

  // --- per-read checks: provenance, value, promise soundness, causality. ---
  for (const auto& r : reads_) {
    if (r.ts != Timestamp::min()) {
      const InstallRec* ins = find_install(r.key, r.ts);
      if (ins == nullptr) {
        std::ostringstream os;
        os << "txn " << r.txn << " read key " << r.key << " @ "
           << r.ts.to_string() << " but no such version was installed";
        out.push_back(Violation{Violation::Kind::kUnexplainedRead, r.txn,
                                r.key, os.str()});
      } else if (ins->value_hash != r.value_hash) {
        std::ostringstream os;
        os << "txn " << r.txn << " read key " << r.key << " @ "
           << r.ts.to_string() << " with a value different from the install";
        out.push_back(Violation{Violation::Kind::kValueMismatch, r.txn, r.key,
                                os.str()});
      }
    }
    if (const InstallRec* succ = successor(r.key, r.ts);
        succ != nullptr && succ->ts <= r.promise) {
      std::ostringstream os;
      os << "txn " << r.txn << " was promised key " << r.key << " @ "
         << r.ts.to_string() << " holds until " << r.promise.to_string()
         << " but txn " << succ->txn << " installed a successor @ "
         << succ->ts.to_string();
      out.push_back(
          Violation{Violation::Kind::kUnsoundPromise, r.txn, r.key, os.str()});
    }
    auto it = txns_.find(r.txn);
    if (it != txns_.end() && it->second.acked &&
        it->second.commit_ts <= r.ts) {
      std::ostringstream os;
      os << "txn " << r.txn << " commit ts " << it->second.commit_ts.to_string()
         << " <= read ts " << r.ts.to_string() << " of key " << r.key;
      out.push_back(
          Violation{Violation::Kind::kCausalOrder, r.txn, r.key, os.str()});
    }
  }

  // --- completed transactions: repeatable reads + snapshot validity. ---
  std::unordered_map<TxnId, std::vector<const ReadRec*>> reads_by_txn;
  for (const auto& r : reads_) reads_by_txn[r.txn].push_back(&r);
  for (TxnId id : txn_ids) {
    const TxnRec& t = txns_.at(id);
    if (!t.completed) continue;
    auto rit = reads_by_txn.find(id);
    if (rit == reads_by_txn.end()) continue;
    const auto& txn_reads = rit->second;
    // Repeatable reads: every observation of a key at one timestamp.
    std::map<Key, Timestamp> first_ts;
    for (const ReadRec* r : txn_reads) {
      auto [it, inserted] = first_ts.emplace(r->key, r->ts);
      if (!inserted && it->second != r->ts) {
        std::ostringstream os;
        os << "txn " << id << " observed key " << r->key << " @ "
           << it->second.to_string() << " and again @ " << r->ts.to_string();
        out.push_back(Violation{Violation::Kind::kNonRepeatableRead, id,
                                r->key, os.str()});
        it->second = r->ts;  // report each distinct flip once
      }
    }
    // Snapshot validity / atomic visibility: some snapshot must see every
    // read version and none of their successors.  Version v of key k
    // explains snapshots in [v.ts, succ(k, v.ts) - 1]; the windows of a
    // transaction's reads must intersect.
    Timestamp lo = Timestamp::min();
    Timestamp hi = Timestamp::max();
    Key lo_key = 0, hi_key = 0;
    for (const ReadRec* r : txn_reads) {
      if (r->ts > lo) {
        lo = r->ts;
        lo_key = r->key;
      }
      const InstallRec* succ = successor(r->key, r->ts);
      const Timestamp w_hi = succ != nullptr ? succ->ts.prev() : Timestamp::max();
      if (w_hi < hi) {
        hi = w_hi;
        hi_key = r->key;
      }
    }
    if (lo > hi) {
      std::ostringstream os;
      os << "txn " << id << ": no snapshot explains all reads (key " << lo_key
         << " forces >= " << lo.to_string() << ", key " << hi_key
         << " is overwritten by " << hi.next().to_string() << ")";
      out.push_back(Violation{Violation::Kind::kEmptySnapshotWindow, id,
                              lo_key, os.str()});
    }
  }

  // --- read-your-writes: a function never cache-reads its own write. ---
  std::map<std::tuple<TxnId, uint64_t, Key>, uint64_t> first_write_seq;
  for (const auto& w : writes_) {
    first_write_seq.emplace(std::make_tuple(w.txn, w.fn, w.key), w.seq);
  }
  for (const auto& r : reads_) {
    auto it = first_write_seq.find(std::make_tuple(r.txn, r.fn, r.key));
    if (it != first_write_seq.end() && it->second < r.seq) {
      std::ostringstream os;
      os << "txn " << r.txn << " function " << r.fn << " cache-read key "
         << r.key << " after buffering a write to it";
      out.push_back(
          Violation{Violation::Kind::kReadYourWrites, r.txn, r.key, os.str()});
    }
  }

  // --- handoff floors: a joiner never installs at or below its floor. ---
  // The floor covers every promise the sources issued for the migrated
  // keys, so an install under it could invalidate a promise the oracle's
  // per-read successor scan cannot attribute (the read may predate the
  // run's recording of the handoff).
  for (const auto& h : handoffs_) {
    for (size_t i = h.installs_before; i < installs_.size(); ++i) {
      const InstallRec& rec = installs_[i];
      if (rec.partition != h.partition || rec.ts > h.floor) continue;
      // A keyed handoff (scale-in survivor) scopes the floor to the
      // migrated chains; pre-owned keys are allowed below it.
      if (!h.keys.empty() &&
          !std::binary_search(h.keys.begin(), h.keys.end(), rec.key)) {
        continue;
      }
      // Exact re-materialization of an install recorded before the
      // handoff: a coordinator retry re-applying, at a promoted follower,
      // a version the dead leader already installed.  The version existed
      // before the floor was sealed, so no promise is endangered.
      bool rematerialization = false;
      if (auto bk = by_key.find(rec.key); bk != by_key.end()) {
        for (const InstallRec* prior : bk->second) {
          if (index_of(prior) < h.installs_before &&
              prior->partition == rec.partition && prior->ts == rec.ts &&
              prior->txn == rec.txn &&
              prior->value_hash == rec.value_hash) {
            rematerialization = true;
            break;
          }
        }
      }
      if (rematerialization) continue;
      std::ostringstream os;
      os << "partition " << h.partition << " joined with handoff floor "
         << h.floor.to_string() << " but later installed key " << rec.key
         << " @ " << rec.ts.to_string() << " (txn " << rec.txn << ")";
      out.push_back(
          Violation{Violation::Kind::kHandoffFloor, rec.txn, rec.key, os.str()});
    }
  }

  // --- durability across failover: no commit-acked write lost. ---
  // The commit ack asserted the writes were durable at f+1 (leader + every
  // caught-up follower); the promoted follower's store must therefore hold
  // every acked version this partition installed before the promotion.
  // Only the acked commit timestamp's version is owed (a pre-failover
  // install at another timestamp is a never-acked attempt that died with
  // the old leader and was re-executed, see above).
  for (const auto& f : failovers_) {
    for (size_t i = 0; i < f.installs_before && i < installs_.size(); ++i) {
      const InstallRec& rec = installs_[i];
      if (rec.partition != f.partition || rec.txn == 0) continue;
      auto it = txns_.find(rec.txn);
      if (it == txns_.end() || !it->second.acked) continue;
      if (rec.ts != it->second.commit_ts) continue;
      if (std::binary_search(f.surviving.begin(), f.surviving.end(),
                             std::make_pair(rec.key, rec.ts))) {
        continue;
      }
      std::ostringstream os;
      os << "partition " << f.partition << " failed over but the promoted "
         << "leader lost key " << rec.key << " @ " << rec.ts.to_string()
         << " (txn " << rec.txn << ", commit was acked as durable)";
      out.push_back(Violation{Violation::Kind::kDurabilityLoss, rec.txn,
                              rec.key, os.str()});
    }
  }

  // --- session monotonicity per client. ---
  for (const auto& [client, steps] : sessions_) {
    for (size_t i = 1; i < steps.size(); ++i) {
      if (steps[i] < steps[i - 1]) {
        std::ostringstream os;
        os << "client " << client << " session ts regressed from "
           << steps[i - 1].to_string() << " to " << steps[i].to_string()
           << " at DAG " << i;
        out.push_back(
            Violation{Violation::Kind::kSessionOrder, 0, 0, os.str()});
      }
    }
  }

  return out;
}

}  // namespace faastcc::check
