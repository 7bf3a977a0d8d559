// Lightweight statistics: counters and a fixed-boundary histogram used by
// the experiment harness for processing-time and latency distributions.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace evps {

/// Streaming summary of a sequence of doubles. Non-finite samples (NaN,
/// ±inf) are rejected — counted in `rejected()` but kept out of every
/// moment, so one corrupt sample cannot poison an aggregate that is later
/// merged fleet-wide. Spread is `OnlineStats`' job (stats/online_stats.hpp).
class Summary {
 public:
  void record(double x) noexcept {
    if (!std::isfinite(x)) {
      ++rejected_;
      return;
    }
    ++count_;
    sum_ += x;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t rejected() const noexcept { return rejected_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept { return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_); }
  [[nodiscard]] double min() const noexcept { return count_ == 0 ? 0.0 : min_; }
  [[nodiscard]] double max() const noexcept { return count_ == 0 ? 0.0 : max_; }

  void merge(const Summary& other) noexcept {
    rejected_ += other.rejected_;
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  void reset() noexcept { *this = Summary{}; }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t rejected_ = 0;
  double sum_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Histogram over explicit bucket boundaries. Values < first boundary fall
/// into bucket 0; values >= last boundary into the overflow bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<double> boundaries) : boundaries_(std::move(boundaries)) {
    if (!std::is_sorted(boundaries_.begin(), boundaries_.end())) {
      throw std::invalid_argument("histogram boundaries must be sorted");
    }
    counts_.assign(boundaries_.size() + 1, 0);
  }

  void record(double x) noexcept {
    // Route non-finite samples through the summary's guard (they count as
    // rejected there) without disturbing any bucket: NaN would otherwise
    // land in bucket 0 via upper_bound's false comparisons.
    if (!std::isfinite(x)) {
      summary_.record(x);
      return;
    }
    const auto pos = std::upper_bound(boundaries_.begin(), boundaries_.end(), x);
    ++counts_[static_cast<std::size_t>(pos - boundaries_.begin())];
    summary_.record(x);
  }

  [[nodiscard]] const std::vector<std::uint64_t>& counts() const noexcept { return counts_; }
  [[nodiscard]] const std::vector<double>& boundaries() const noexcept { return boundaries_; }
  [[nodiscard]] const Summary& summary() const noexcept { return summary_; }

  /// Merge another histogram recorded over the same boundaries (aggregating
  /// per-link / per-shard histograms into a fleet view).
  void merge(const Histogram& other) {
    if (boundaries_ != other.boundaries_) {
      throw std::invalid_argument("cannot merge histograms with different boundaries");
    }
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    summary_.merge(other.summary_);
  }

  void reset() noexcept {
    std::fill(counts_.begin(), counts_.end(), 0);
    summary_.reset();
  }

  /// Approximate quantile (bucket upper bound containing the q-th sample).
  [[nodiscard]] double quantile(double q) const noexcept;

 private:
  std::vector<double> boundaries_;
  std::vector<std::uint64_t> counts_;
  Summary summary_;
};

}  // namespace evps
