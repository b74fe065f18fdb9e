// Metrics primitives used by the protocol, the harness, and the benches.
//
// Histogram uses HDR-style bucketing: values are grouped into buckets whose
// width doubles every `kSubBuckets` buckets, giving ~1.5% relative error over
// nine decades with a few KiB of memory. Not thread-safe by design — each
// component owns its metrics and either runs single-threaded (simulator) or
// aggregates under its own lock.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace zab {

/// Log-linear histogram of non-negative integer samples (e.g. latency ns).
class Histogram {
 public:
  Histogram() : buckets_(kNumBuckets, 0) {}

  void record(std::uint64_t value);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  [[nodiscard]] std::uint64_t min() const { return count_ ? min_ : 0; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0;
  }
  /// Approximate quantile, q in [0,1].
  [[nodiscard]] std::uint64_t quantile(double q) const;

  void merge(const Histogram& other);
  void reset();

  /// "count=.. mean=.. p50=.. p99=.. max=.." (values in the recorded unit).
  [[nodiscard]] std::string summary(double scale = 1.0,
                                    const std::string& unit = "") const;

 private:
  static constexpr int kSubBucketBits = 6;  // 64 sub-buckets per octave
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kOctaves = 40;
  static constexpr int kNumBuckets = kSubBuckets * kOctaves;

  [[nodiscard]] static int bucket_index(std::uint64_t value);
  [[nodiscard]] static std::uint64_t bucket_midpoint(int idx);

  std::vector<std::uint32_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = UINT64_MAX;
  std::uint64_t max_ = 0;
};

}  // namespace zab
