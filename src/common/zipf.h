// Zipf-distributed key sampler.
//
// The paper's workloads draw keys from Zipf distributions with exponents
// 1.0, 1.25 and 1.5 over a 100 000-key dataset.  We precompute the CDF once
// per (n, theta) pair and invert it exactly: a guide table over u narrows
// the search to the few ranks whose CDF crosses u's bucket, and the result
// is always the rank std::upper_bound over the whole CDF would return, so
// key draws (and with them every schedule) are unchanged by the table.
//
// A sampler is a cheap copyable handle: copies share one immutable table,
// so a cluster builds it once and hands it to every client.  Sampling is
// const and draws only from the caller's Rng.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace faastcc {

class ZipfSampler {
 public:
  // Builds a new table; theta == 0 degenerates to the uniform
  // distribution.
  ZipfSampler(uint64_t num_keys, double theta);

  Key sample(Rng& rng) const;

  uint64_t num_keys() const { return table_->num_keys; }
  double theta() const { return table_->theta; }

  // Probability mass of rank `r` (0-based); exposed for tests.
  double pmf(uint64_t r) const;

  // The rank drawn for uniform variate `u` in [0, 1); sample() is
  // rank_of(rng.next_double()).  Exposed for tests, with the CDF it
  // inverts.
  Key rank_of(double u) const;
  const std::vector<double>& cdf() const { return table_->cdf; }

 private:
  struct Table {
    uint64_t num_keys;
    double theta;
    std::vector<double> cdf;
    // guide[b] = upper_bound(cdf, b / G) for G = guide.size() - 1 buckets:
    // the answer for any u in bucket b lies in [guide[b], guide[b + 1]].
    std::vector<uint32_t> guide;
  };
  std::shared_ptr<const Table> table_;
};

}  // namespace faastcc
