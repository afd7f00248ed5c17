#include "zipf.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace perfbench {

ZipfSampler::ZipfSampler(std::uint64_t n, double theta) : theta_(theta), harmonic_(0.0) {
  DSM_CHECK(n > 0);
  cdf_.resize(n);
  for (std::uint64_t k = 0; k < n; ++k) {
    harmonic_ += std::pow(static_cast<double>(k + 1), -theta);
    cdf_[k] = harmonic_;
  }
  for (double& c : cdf_) c /= harmonic_;
  cdf_.back() = 1.0;
}

std::uint64_t ZipfSampler::sample(dsm::SplitMix64& rng) const {
  const double u = rng.next_double();
  return static_cast<std::uint64_t>(std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
}

double ZipfSampler::probability(std::uint64_t k) const {
  return std::pow(static_cast<double>(k + 1), -theta_) / harmonic_;
}

}  // namespace perfbench
