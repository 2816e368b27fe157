#include "storage/mv_store.h"

#include <algorithm>

namespace faastcc::storage {
namespace {

bool ts_below(const MvStore::Version& v, Timestamp t) { return v.ts < t; }
bool ts_above(Timestamp t, const MvStore::Version& v) { return t < v.ts; }

}  // namespace

void MvStore::install(Key key, Value value, Timestamp ts) {
  auto [chain, inserted] = chains_.try_emplace(key);
  if (!inserted) {
    // Idempotent: a duplicated or retried commit re-installs the same
    // (key, ts) version; the chain must not grow a twin.
    if (chain->newest.ts == ts) return;
    if (chain->older == nullptr) {
      chain->older = std::make_unique<std::vector<Version>>();
    }
    std::vector<Version>& older = *chain->older;
    if (ts < chain->newest.ts) {
      // Out-of-order install (commit-apply messages are not FIFO across
      // partitions); insert preserving order.
      auto it = std::lower_bound(older.begin(), older.end(), ts, ts_below);
      if (it != older.end() && it->ts == ts) return;
      value_bytes_ += value.size();
      ++num_versions_;
      older.insert(it, Version{std::move(value), ts});
      return;
    }
    older.push_back(std::move(chain->newest));
  }
  value_bytes_ += value.size();
  ++num_versions_;
  chain->newest = Version{std::move(value), ts};
}

void MvStore::migrate_in(Key key, const std::vector<Version>& versions) {
  for (const Version& v : versions) {
    // install() is idempotent on (key, ts) and keeps the accounting, so a
    // migrated chain behaves exactly like one built from commits.
    install(key, v.value, v.ts);
  }
}

std::vector<MvStore::Version> MvStore::flatten(const Chain& c) {
  std::vector<Version> out;
  out.reserve(1 + (c.older != nullptr ? c.older->size() : 0));
  if (c.older != nullptr) out.assign(c.older->begin(), c.older->end());
  out.push_back(c.newest);
  return out;
}

std::vector<std::pair<Key, std::vector<MvStore::Version>>>
MvStore::extract_chains(const std::function<bool(Key)>& pred) {
  std::vector<std::pair<Key, std::vector<Version>>> out;
  chains_.for_each([&](Key key, const Chain& chain) {
    if (pred(key)) out.emplace_back(key, flatten(chain));
  });
  for (const auto& [key, versions] : out) {
    for (const Version& v : versions) value_bytes_ -= v.value.size();
    num_versions_ -= versions.size();
    chains_.erase(key);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

std::vector<std::pair<Key, std::vector<MvStore::Version>>>
MvStore::snapshot_chains() const {
  std::vector<std::pair<Key, std::vector<Version>>> out;
  out.reserve(chains_.size());
  chains_.for_each([&](Key key, const Chain& chain) {
    out.emplace_back(key, flatten(chain));
  });
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

MvStore::ReadResult MvStore::read_at(Key key, Timestamp snapshot) const {
  ReadResult out;
  const Chain* chain = chains_.find(key);
  if (chain == nullptr) return out;
  if (chain->newest.ts <= snapshot) {
    out.version = &chain->newest;
    return out;
  }
  out.next_ts = chain->newest.ts;
  if (chain->older == nullptr) {
    // Nothing at or below the snapshot, yet the key has a version: a
    // suitable one may have existed once and been collected.  Flag it so
    // callers can distinguish "never written" from "history trimmed".
    out.below_gc_horizon = true;
    return out;
  }
  const std::vector<Version>& older = *chain->older;
  // First older version with ts > snapshot.
  auto pos = std::upper_bound(older.begin(), older.end(), snapshot, ts_above);
  if (pos != older.end()) out.next_ts = pos->ts;
  if (pos == older.begin()) {
    out.below_gc_horizon = true;
    return out;
  }
  out.version = &*(pos - 1);
  return out;
}

size_t MvStore::gc_before(Timestamp horizon) {
  size_t dropped = 0;
  chains_.for_each([&](Key, Chain& chain) {
    if (chain.older == nullptr) return;
    std::vector<Version>& older = *chain.older;
    // Keep the newest version at or below the horizon; drop everything
    // before it.
    auto keep_from =
        std::upper_bound(older.begin(), older.end(), horizon, ts_above);
    if (chain.newest.ts <= horizon) {
      keep_from = older.end();  // the inline newest is the one kept
    } else if (keep_from == older.begin()) {
      return;
    } else {
      --keep_from;
    }
    for (auto it = older.begin(); it != keep_from; ++it) {
      value_bytes_ -= it->value.size();
      ++dropped;
    }
    older.erase(older.begin(), keep_from);
    if (older.empty()) chain.older.reset();
  });
  num_versions_ -= dropped;
  return dropped;
}

std::optional<Timestamp> MvStore::oldest_ts(Key key) const {
  const Chain* chain = chains_.find(key);
  if (chain == nullptr) return std::nullopt;
  return chain->older != nullptr ? chain->older->front().ts : chain->newest.ts;
}

std::optional<Timestamp> MvStore::newest_ts(Key key) const {
  const Chain* chain = chains_.find(key);
  if (chain == nullptr) return std::nullopt;
  return chain->newest.ts;
}

}  // namespace faastcc::storage
