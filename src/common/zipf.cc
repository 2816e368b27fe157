#include "common/zipf.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace faastcc {

ZipfSampler::ZipfSampler(uint64_t num_keys, double theta)
    : num_keys_(num_keys), theta_(theta) {
  assert(num_keys > 0);
  cdf_.resize(num_keys);
  double acc = 0.0;
  for (uint64_t i = 0; i < num_keys; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = acc;
  }
  const double total = acc;
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against floating-point shortfall
  // One bucket per 8 keys: heavy-head ranks span many buckets and the light
  // tail puts a few dozen ranks at most in each, for ~0.5 B per key (every
  // client holds its own sampler).
  const size_t buckets = std::max<uint64_t>(1, num_keys / 8);
  // One merge pass over the sorted CDF: guide_[b] = upper_bound(b / G).
  guide_.resize(buckets + 1);
  uint64_t i = 0;
  for (size_t b = 0; b <= buckets; ++b) {
    const double lo = static_cast<double>(b) / static_cast<double>(buckets);
    while (i < num_keys && cdf_[i] <= lo) ++i;
    guide_[b] = static_cast<uint32_t>(i);
  }
}

Key ZipfSampler::sample(Rng& rng) const { return rank_of(rng.next_double()); }

Key ZipfSampler::rank_of(double u) const {
  const size_t buckets = guide_.size() - 1;
  const auto b = std::min(
      static_cast<size_t>(u * static_cast<double>(buckets)), buckets - 1);
  auto it = std::upper_bound(cdf_.begin() + guide_[b],
                             cdf_.begin() + guide_[b + 1], u);
  // u * G may round across a bucket edge; the full search then decides, so
  // the result is upper_bound's for every u.
  if ((it != cdf_.end() && *it <= u) ||
      (it != cdf_.begin() && *(it - 1) > u)) {
    it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  }
  const auto idx = static_cast<uint64_t>(it - cdf_.begin());
  return idx < num_keys_ ? idx : num_keys_ - 1;
}

double ZipfSampler::pmf(uint64_t r) const {
  assert(r < num_keys_);
  return r == 0 ? cdf_[0] : cdf_[r] - cdf_[r - 1];
}

}  // namespace faastcc
