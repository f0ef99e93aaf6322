#include "common/stats.hpp"

#include <cstdio>

#include "common/status.hpp"

namespace hpcla {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  HPCLA_CHECK_MSG(bins >= 1, "Histogram requires at least one bin");
  HPCLA_CHECK_MSG(hi > lo, "Histogram range must be non-empty");
}

std::size_t Histogram::bin_index(double x) const noexcept {
  if (x < lo_) return 0;
  if (x >= hi_) return counts_.size() - 1;
  const double frac = (x - lo_) / (hi_ - lo_);
  auto idx = static_cast<std::size_t>(frac * static_cast<double>(counts_.size()));
  return std::min(idx, counts_.size() - 1);
}

void Histogram::add(double x, std::uint64_t weight) noexcept {
  counts_[bin_index(x)] += weight;
  total_ += weight;
}

std::pair<double, double> Histogram::bin_range(std::size_t i) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return {lo_ + width * static_cast<double>(i),
          lo_ + width * static_cast<double>(i + 1)};
}

std::string Histogram::render_ascii(std::size_t width) const {
  std::uint64_t peak = 0;
  for (auto c : counts_) peak = std::max(peak, c);
  std::string out;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto [b, e] = bin_range(i);
    char head[64];
    std::snprintf(head, sizeof(head), "[%10.1f, %10.1f) %8llu |", b, e,
                  static_cast<unsigned long long>(counts_[i]));
    out += head;
    const std::size_t bar =
        peak ? static_cast<std::size_t>(
                   static_cast<double>(counts_[i]) / static_cast<double>(peak) *
                   static_cast<double>(width))
             : 0;
    out.append(bar, '#');
    out.push_back('\n');
  }
  return out;
}

double pearson_correlation(const std::vector<double>& a,
                           const std::vector<double>& b) {
  HPCLA_CHECK_MSG(a.size() == b.size(), "series length mismatch");
  const std::size_t n = a.size();
  if (n == 0) return 0.0;
  double ma = 0.0;
  double mb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= static_cast<double>(n);
  mb /= static_cast<double>(n);
  double cov = 0.0;
  double va = 0.0;
  double vb = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  if (va == 0.0 || vb == 0.0) return 0.0;
  return cov / std::sqrt(va * vb);
}

}  // namespace hpcla
