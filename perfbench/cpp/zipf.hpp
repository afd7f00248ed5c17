// Zipf(theta) key sampler over [0, n): P(k) = (k+1)^-theta / H(n, theta).
// Inverse-CDF sampling over a precomputed table, so a stream is a pure
// function of the generator's seed.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace perfbench {

class ZipfSampler {
 public:
  ZipfSampler(std::uint64_t n, double theta);

  std::uint64_t sample(dsm::SplitMix64& rng) const;
  /// Analytic probability of key k.
  double probability(std::uint64_t k) const;
  std::uint64_t size() const { return cdf_.size(); }

 private:
  double theta_;
  double harmonic_;         // H(n, theta)
  std::vector<double> cdf_; // cdf_[k] = P(key <= k)
};

}  // namespace perfbench
