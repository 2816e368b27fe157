#include "common/metrics.h"

namespace faastcc {
namespace {

// Well-known names, resolved to the typed members so both access styles
// share storage.  Table order defines the iteration order.
struct CounterDesc {
  const char* name;
  Counter Metrics::*member;
};

constexpr CounterDesc kCounters[] = {
    {"dag.attempts", &Metrics::dag_attempts},
    {"dag.commits", &Metrics::dag_commits},
    {"dag.aborts", &Metrics::dag_aborts},
    {"dag.timeouts", &Metrics::dag_timeouts},
    {"cache.lookups", &Metrics::cache_lookups},
    {"cache.hits", &Metrics::cache_hits},
    {"storage.episodes", &Metrics::storage_episodes},
};

struct HistogramDesc {
  const char* name;
  Samples Metrics::*member;
};

constexpr HistogramDesc kHistograms[] = {
    {"dag.latency_ms", &Metrics::dag_latency_ms},
    {"dag.aborted_latency_ms", &Metrics::aborted_latency_ms},
    {"dag.metadata_bytes", &Metrics::metadata_bytes},
    {"storage.rounds", &Metrics::storage_rounds},
    {"storage.read_bytes", &Metrics::storage_read_bytes},
};

}  // namespace

Counter& Metrics::counter(std::string_view name) {
  for (const auto& d : kCounters) {
    if (name == d.name) return this->*(d.member);
  }
  for (auto& [n, c] : dynamic_counters_) {
    if (name == n) return c;
  }
  dynamic_counters_.emplace_back(std::string(name), Counter{});
  return dynamic_counters_.back().second;
}

Samples& Metrics::histogram(std::string_view name) {
  for (const auto& d : kHistograms) {
    if (name == d.name) return this->*(d.member);
  }
  for (auto& [n, h] : dynamic_histograms_) {
    if (name == n) return h;
  }
  dynamic_histograms_.emplace_back(std::string(name), Samples{});
  return dynamic_histograms_.back().second;
}

const Counter* Metrics::find_counter(std::string_view name) const {
  for (const auto& d : kCounters) {
    if (name == d.name) return &(this->*(d.member));
  }
  for (const auto& [n, c] : dynamic_counters_) {
    if (name == n) return &c;
  }
  return nullptr;
}

const Samples* Metrics::find_histogram(std::string_view name) const {
  for (const auto& d : kHistograms) {
    if (name == d.name) return &(this->*(d.member));
  }
  for (const auto& [n, h] : dynamic_histograms_) {
    if (name == n) return &h;
  }
  return nullptr;
}

Metrics Metrics::drain_histograms() {
  Metrics out;
  for (const auto& d : kCounters) out.*(d.member) = this->*(d.member);
  out.dynamic_counters_ = dynamic_counters_;
  for (const auto& d : kHistograms) {
    out.*(d.member) = std::exchange(this->*(d.member), Samples{});
  }
  for (auto& [n, h] : dynamic_histograms_) {
    out.dynamic_histograms_.emplace_back(n, std::exchange(h, Samples{}));
  }
  return out;
}

void Metrics::each_counter(
    const std::function<void(const char*, const Counter&)>& fn) const {
  for (const auto& d : kCounters) fn(d.name, this->*(d.member));
  for (const auto& [n, c] : dynamic_counters_) fn(n.c_str(), c);
}

void Metrics::each_histogram(
    const std::function<void(const char*, const Samples&)>& fn) const {
  for (const auto& d : kHistograms) fn(d.name, this->*(d.member));
  for (const auto& [n, h] : dynamic_histograms_) fn(n.c_str(), h);
}

}  // namespace faastcc
