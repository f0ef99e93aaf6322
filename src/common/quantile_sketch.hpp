// Bounded-memory approximate quantiles (Greenwald-Khanna 2001, with the
// batched-insert and merge refinements used by Manku-style multi-level
// summaries). Replaces buffer-everything-and-sort in the percentile
// analytics paths: memory is O(1/eps * log(eps*n)) tuples regardless of
// input size, every quantile(q) answer is within eps*n of the true rank,
// and sketches merge — so per-partition sketches can be combined through
// reduce_by_key without shipping raw samples (DESIGN.md §13.3).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hpcla {

class QuantileSketch {
 public:
  /// eps is the rank-error bound: quantile(q) returns a value whose true
  /// rank is within eps*count() of q*count(). Smaller eps = more tuples.
  explicit QuantileSketch(double epsilon = 0.01);

  void add(double x);

  /// q in [0,1]; returns 0 with no samples. Flushes the insert buffer
  /// (hence mutable internals) but performs no O(n) work.
  [[nodiscard]] double quantile(double q) const;

  /// Merges another sketch. The merged rank error is bounded by the sum of
  /// the two sketches' epsilons; merging sketches built with the same eps
  /// stays within 2*eps (compress() keeps it from compounding further).
  void merge(const QuantileSketch& other);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double epsilon() const noexcept { return epsilon_; }
  /// Retained summary size after flushing — the bounded-memory guarantee
  /// tests assert on this.
  [[nodiscard]] std::size_t tuple_count() const;

 private:
  // One GK tuple: value v covers g ranks ending at rmin(i) = sum of g's up
  // to i; del bounds the rank uncertainty (rmax = rmin + del).
  struct Tuple {
    double v;
    std::uint64_t g;
    std::uint64_t del;
  };

  void flush_buffer() const;
  void compress() const;

  double epsilon_;
  std::uint64_t count_ = 0;
  mutable std::vector<Tuple> tuples_;
  mutable std::vector<double> buffer_;  // bounded: flushed at capacity
  std::size_t buffer_capacity_;
};

}  // namespace hpcla
