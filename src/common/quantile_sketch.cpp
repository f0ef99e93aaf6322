#include "common/quantile_sketch.hpp"

#include <algorithm>
#include <cmath>

#include "common/status.hpp"

namespace hpcla {

QuantileSketch::QuantileSketch(double epsilon) : epsilon_(epsilon) {
  HPCLA_CHECK_MSG(epsilon > 0.0 && epsilon < 1.0,
                  "QuantileSketch epsilon must be in (0, 1)");
  // Buffering ~1/(2eps) inserts amortizes the flush merge without raising
  // the memory bound's order: the buffer is the same O(1/eps) as the
  // summary itself.
  buffer_capacity_ = std::max<std::size_t>(
      16, static_cast<std::size_t>(std::ceil(1.0 / (2.0 * epsilon))));
}

void QuantileSketch::add(double x) {
  buffer_.push_back(x);
  ++count_;
  if (buffer_.size() >= buffer_capacity_) {
    flush_buffer();
    compress();
  }
}

void QuantileSketch::flush_buffer() const {
  if (buffer_.empty()) return;
  std::sort(buffer_.begin(), buffer_.end());
  std::vector<Tuple> merged;
  merged.reserve(tuples_.size() + buffer_.size());
  std::size_t ti = 0;
  std::size_t bi = 0;
  while (ti < tuples_.size() || bi < buffer_.size()) {
    if (bi >= buffer_.size() ||
        (ti < tuples_.size() && tuples_[ti].v <= buffer_[bi])) {
      merged.push_back(tuples_[ti++]);
      continue;
    }
    // New element inserted before tuples_[ti]: it covers one rank (g=1).
    // At the extremes its rank is exact (del=0); in the interior its
    // uncertainty is that of the successor's band, g_next + del_next - 1.
    const double v = buffer_[bi++];
    std::uint64_t del = 0;
    if (!merged.empty() && ti < tuples_.size()) {
      del = tuples_[ti].g + tuples_[ti].del - 1;
    }
    merged.push_back(Tuple{v, 1, del});
  }
  tuples_ = std::move(merged);
  buffer_.clear();
}

void QuantileSketch::compress() const {
  if (tuples_.size() < 3) return;
  const auto threshold = static_cast<std::uint64_t>(
      2.0 * epsilon_ * static_cast<double>(count_));
  if (threshold == 0) return;
  std::vector<Tuple> out;
  out.reserve(tuples_.size());
  out.push_back(tuples_.front());  // min is always retained exactly
  // Fold tuple i into its successor when the successor's resulting band
  // (g_i + g_{i+1} + del_{i+1}) stays within 2*eps*n. `pending` carries the
  // g of already-folded predecessors.
  std::uint64_t pending = 0;
  for (std::size_t i = 1; i + 1 < tuples_.size(); ++i) {
    const Tuple& t = tuples_[i];
    const Tuple& next = tuples_[i + 1];
    if (pending + t.g + next.g + next.del <= threshold) {
      pending += t.g;
    } else {
      Tuple kept = t;
      kept.g += pending;
      pending = 0;
      out.push_back(kept);
    }
  }
  Tuple last = tuples_.back();  // max is always retained exactly
  last.g += pending;
  out.push_back(last);
  tuples_ = std::move(out);
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) return 0.0;
  flush_buffer();
  q = std::clamp(q, 0.0, 1.0);
  // Min and max are always retained exactly (flush and compress both pin
  // the boundary tuples), so the extremes need no rank search.
  if (q == 0.0) return tuples_.front().v;
  if (q == 1.0) return tuples_.back().v;
  // Target rank in [1, n], nearest-rank convention (q over n-1 intervals).
  const double target =
      1.0 + q * static_cast<double>(count_ - 1);
  const double slack = epsilon_ * static_cast<double>(count_);
  std::uint64_t rmin = 0;
  for (std::size_t i = 0; i < tuples_.size(); ++i) {
    rmin += tuples_[i].g;
    const std::uint64_t rmax = rmin + tuples_[i].del;
    if (static_cast<double>(rmin) >= target - slack &&
        static_cast<double>(rmax) <= target + slack) {
      return tuples_[i].v;
    }
    if (static_cast<double>(rmin) > target) {
      // Passed the target without satisfying both bounds (possible right
      // after merge when uncertainties add): the previous tuple is closest.
      return tuples_[i > 0 ? i - 1 : 0].v;
    }
  }
  return tuples_.back().v;
}

void QuantileSketch::merge(const QuantileSketch& other) {
  if (other.count_ == 0) return;
  flush_buffer();
  other.flush_buffer();
  if (count_ == 0) {
    tuples_ = other.tuples_;
    count_ = other.count_;
    return;
  }
  // Standard GK merge (as in Spark's ApproximatePercentile): interleave by
  // value; each tuple keeps its g, and gains the uncertainty of the other
  // summary at its position — the other side's next tuple's g + del - 1.
  std::vector<Tuple> merged;
  merged.reserve(tuples_.size() + other.tuples_.size());
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < tuples_.size() || b < other.tuples_.size()) {
    bool take_a;
    if (a >= tuples_.size()) {
      take_a = false;
    } else if (b >= other.tuples_.size()) {
      take_a = true;
    } else {
      take_a = tuples_[a].v <= other.tuples_[b].v;
    }
    const std::vector<Tuple>& src = take_a ? tuples_ : other.tuples_;
    const std::vector<Tuple>& oth = take_a ? other.tuples_ : tuples_;
    const std::size_t si = take_a ? a : b;
    const std::size_t oi = take_a ? b : a;
    Tuple t = src[si];
    if (oi < oth.size()) {
      t.del += oth[oi].g + oth[oi].del - 1;
    }
    merged.push_back(t);
    (take_a ? a : b) = si + 1;
  }
  tuples_ = std::move(merged);
  count_ += other.count_;
  compress();
}

std::size_t QuantileSketch::tuple_count() const {
  flush_buffer();
  return tuples_.size();
}

}  // namespace hpcla
