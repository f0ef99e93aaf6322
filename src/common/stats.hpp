// Descriptive statistics used throughout the analytics layer and benches:
// running moments, percentiles, fixed-width histograms, and the coefficient
// of variation used to score partition balance (Fig 4 experiments).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace hpcla {

/// Single-pass running mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  /// Adds one observation.
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  /// Merges another accumulator (parallel reduction support).
  void merge(const RunningStats& o) noexcept {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    const double delta = o.mean_ - mean_;
    const auto na = static_cast<double>(n_);
    const auto nb = static_cast<double>(o.n_);
    const double nt = na + nb;
    m2_ += o.m2_ + delta * delta * na * nb / nt;
    mean_ = (na * mean_ + nb * o.mean_) / nt;
    n_ += o.n_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    sum_ += o.sum_;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Population variance; 0 for fewer than two samples.
  [[nodiscard]] double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }
  /// Coefficient of variation (stddev/mean); 0 when the mean is 0.
  [[nodiscard]] double cv() const noexcept {
    return mean() != 0.0 ? stddev() / std::abs(mean()) : 0.0;
  }
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-width histogram over [lo, hi); out-of-range values clamp into the
/// edge bins. Backs the frontend's per-hour event histograms (Fig 5).
class Histogram {
 public:
  /// Creates `bins` equal-width buckets spanning [lo, hi). Requires
  /// bins >= 1 and hi > lo.
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, std::uint64_t weight = 1) noexcept;

  [[nodiscard]] std::size_t bin_count() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t bin(std::size_t i) const { return counts_.at(i); }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  /// [inclusive lower, exclusive upper) bounds of bin i.
  [[nodiscard]] std::pair<double, double> bin_range(std::size_t i) const;

  /// Index of the bin holding x (after clamping).
  [[nodiscard]] std::size_t bin_index(double x) const noexcept;

  /// Renders a fixed-width ASCII bar chart (one row per bin) — the textual
  /// stand-in for the frontend's histogram widget.
  [[nodiscard]] std::string render_ascii(std::size_t width = 50) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Pearson correlation of two equal-length series; 0 if either is constant.
double pearson_correlation(const std::vector<double>& a,
                           const std::vector<double>& b);

}  // namespace hpcla
