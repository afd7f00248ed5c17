// Order statistics for the benchmark's reports.
#pragma once

#include <vector>

namespace perfbench {

/// The q-th percentile (q in [0, 100]) with linear interpolation between
/// closest ranks (rank = q/100 * (n-1)). 0 for an empty sample.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

}  // namespace perfbench
