// Percentile maths and small summaries used by every rtbench report.
#pragma once

#include <vector>

namespace rtbench {

/// Nearest-rank percentile of `samples` (q in [0, 1]). Empty input gives
/// 0. q = 0.5 of {1,2,3,4} is 2, q = 0.99 of 1..100 is 99.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// Median of a small vector of values (copies; empty gives 0).
[[nodiscard]] double median(std::vector<double> v);

}  // namespace rtbench
