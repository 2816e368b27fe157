#include "common/zipf.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace faastcc {

ZipfSampler::ZipfSampler(uint64_t num_keys, double theta) {
  assert(num_keys > 0);
  auto t = std::make_shared<Table>();
  t->num_keys = num_keys;
  t->theta = theta;
  std::vector<double>& cdf = t->cdf;
  cdf.resize(num_keys);
  double acc = 0.0;
  for (uint64_t i = 0; i < num_keys; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf[i] = acc;
  }
  const double total = acc;
  for (auto& c : cdf) c /= total;
  cdf.back() = 1.0;  // guard against floating-point shortfall
  // One bucket per 8 keys: heavy-head ranks span many buckets and the light
  // tail puts a few dozen ranks at most in each, for ~0.5 B per key.
  const size_t buckets = std::max<uint64_t>(1, num_keys / 8);
  // One merge pass over the sorted CDF: guide[b] = upper_bound(b / G).
  t->guide.resize(buckets + 1);
  uint64_t i = 0;
  for (size_t b = 0; b <= buckets; ++b) {
    const double lo = static_cast<double>(b) / static_cast<double>(buckets);
    while (i < num_keys && cdf[i] <= lo) ++i;
    t->guide[b] = static_cast<uint32_t>(i);
  }
  table_ = std::move(t);
}

Key ZipfSampler::sample(Rng& rng) const { return rank_of(rng.next_double()); }

Key ZipfSampler::rank_of(double u) const {
  const std::vector<double>& cdf = table_->cdf;
  const std::vector<uint32_t>& guide = table_->guide;
  const size_t buckets = guide.size() - 1;
  const auto b = std::min(
      static_cast<size_t>(u * static_cast<double>(buckets)), buckets - 1);
  auto it = std::upper_bound(cdf.begin() + guide[b],
                             cdf.begin() + guide[b + 1], u);
  // u * G may round across a bucket edge; the full search then decides, so
  // the result is upper_bound's for every u.
  if ((it != cdf.end() && *it <= u) || (it != cdf.begin() && *(it - 1) > u)) {
    it = std::upper_bound(cdf.begin(), cdf.end(), u);
  }
  const auto idx = static_cast<uint64_t>(it - cdf.begin());
  return idx < table_->num_keys ? idx : table_->num_keys - 1;
}

double ZipfSampler::pmf(uint64_t r) const {
  const std::vector<double>& cdf = table_->cdf;
  assert(r < table_->num_keys);
  return r == 0 ? cdf[0] : cdf[r] - cdf[r - 1];
}

}  // namespace faastcc
