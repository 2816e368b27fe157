// Deterministic pseudo-random number generation.
//
// The whole simulation draws from explicitly seeded generators so that any
// experiment or failing test can be replayed bit-for-bit.  xoshiro256**
// (Blackman & Vigna) seeded via splitmix64.
#pragma once

#include <cstdint>

namespace faastcc {

class Rng {
 public:
  explicit Rng(uint64_t seed);

  uint64_t next_u64();

  // Uniform in [0, n).  n must be > 0.
  uint64_t next_below(uint64_t n);

  // Uniform double in [0, 1).
  double next_double();

  bool next_bool(double p_true);

  // Derives an independent child generator; used to give every simulated
  // component its own stream from one experiment seed.
  Rng fork();

 private:
  uint64_t s_[4];
};

}  // namespace faastcc
