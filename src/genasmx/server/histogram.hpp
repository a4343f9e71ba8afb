#pragma once
// Log-bucketed latency histogram shared by the server's aggregate stats
// and the load generator. Values 0..15 are exact; above that, each
// power-of-two range splits into 16 sub-buckets, bounding quantile error
// at ~6% while keeping the footprint a flat constant-size array — no
// allocation on the record path, trivially mergeable across threads.

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <ostream>

namespace gx::server {

class LatencyHistogram {
 public:
  static constexpr std::size_t kSub = 16;
  static constexpr std::size_t kBuckets = kSub + (64 - 4) * kSub;

  void record(std::uint64_t value) noexcept {
    ++buckets_[bucketOf(value)];
    ++count_;
    max_ = std::max(max_, value);
  }

  void merge(const LatencyHistogram& other) noexcept {
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    max_ = std::max(max_, other.max_);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }

  /// Value at quantile q in [0, 1]: the upper edge of the bucket holding
  /// the q-th sample (clamped to the observed max). 0 when empty.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept {
    if (count_ == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(count_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen > rank) return std::min(bucketUpper(i), max_);
    }
    return max_;
  }

  /// The summary object every latency report writes: {"count", "p50",
  /// "p90", "p99", "max"}, integer values in the recorded unit.
  void writeJson(std::ostream& out) const {
    out << "{\"count\": " << count_ << ", \"p50\": " << quantile(0.50)
        << ", \"p90\": " << quantile(0.90)
        << ", \"p99\": " << quantile(0.99) << ", \"max\": " << max_
        << "}";
  }

 private:
  static std::size_t bucketOf(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int msb = 63 - std::countl_zero(v);  // >= 4 here
    const auto sub = static_cast<std::size_t>((v >> (msb - 4)) & (kSub - 1));
    return kSub + static_cast<std::size_t>(msb - 4) * kSub + sub;
  }

  static std::uint64_t bucketUpper(std::size_t b) noexcept {
    if (b < kSub) return static_cast<std::uint64_t>(b);
    const std::size_t msb = (b - kSub) / kSub + 4;
    const std::uint64_t sub = (b - kSub) % kSub;
    // Bucket covers [base + sub*step, base + (sub+1)*step).
    const std::uint64_t base = std::uint64_t{1} << msb;
    const std::uint64_t step = base / kSub;
    return base + (sub + 1) * step - 1;
  }

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t max_ = 0;
};

}  // namespace gx::server
