// Tests for hash, rng, strings, stats, thread_pool, logging.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"

namespace hpcla {
namespace {

// ----------------------------------------------------------------- hashing

TEST(HashTest, Murmur3IsDeterministic) {
  EXPECT_EQ(murmur3_64("hello"), murmur3_64("hello"));
  EXPECT_NE(murmur3_64("hello"), murmur3_64("hellp"));
  EXPECT_NE(murmur3_64("hello", 1), murmur3_64("hello", 2));
}

TEST(HashTest, Murmur3HandlesAllTailLengths) {
  // Exercise every switch case (len % 16 in 0..15) plus a multi-block input.
  std::set<std::uint64_t> seen;
  std::string s;
  for (int len = 0; len <= 40; ++len) {
    seen.insert(murmur3_64(s));
    s.push_back(static_cast<char>('a' + len % 26));
  }
  EXPECT_EQ(seen.size(), 41u);  // no collisions on this trivial family
}

TEST(HashTest, TokensSpreadAcrossSignRange) {
  int neg = 0;
  int pos = 0;
  for (int i = 0; i < 1000; ++i) {
    Token t = token_for_key("key-" + std::to_string(i));
    (t < 0 ? neg : pos)++;
  }
  EXPECT_GT(neg, 300);
  EXPECT_GT(pos, 300);
}

TEST(HashTest, Fnv1aConstexpr) {
  constexpr std::uint64_t h = fnv1a_64("abc");
  EXPECT_EQ(h, fnv1a_64("abc"));
  EXPECT_NE(fnv1a_64("abc"), fnv1a_64("abd"));
}

// --------------------------------------------------------------------- rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntBoundsInclusive) {
  Rng r(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    auto v = r.uniform_int(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, PoissonMeanApproximatelyCorrect) {
  Rng r(11);
  RunningStats small;
  RunningStats large;
  for (int i = 0; i < 20000; ++i) {
    small.add(static_cast<double>(r.poisson(3.0)));
    large.add(static_cast<double>(r.poisson(100.0)));
  }
  EXPECT_NEAR(small.mean(), 3.0, 0.1);
  EXPECT_NEAR(large.mean(), 100.0, 1.0);
}

TEST(RngTest, ExponentialMean) {
  Rng r(13);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(r.exponential(0.5));
  EXPECT_NEAR(s.mean(), 2.0, 0.1);
}

TEST(RngTest, ZipfIsSkewedTowardLowRanks) {
  Rng r(17);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) counts[r.zipf(10, 1.2)]++;
  EXPECT_GT(counts[0], counts[1]);
  EXPECT_GT(counts[1], counts[4]);
  EXPECT_GT(counts[0], 4 * counts[9]);
}

TEST(RngTest, WeightedPickRespectsWeights) {
  Rng r(19);
  std::vector<double> w{1.0, 0.0, 9.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 10000; ++i) counts[r.weighted_pick(w)]++;
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0] * 5);
}

TEST(RngTest, ForkIsIndependent) {
  Rng parent(23);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  EXPECT_NE(c1.next_u64(), c2.next_u64());
}

TEST(RngTest, HexStringFormat) {
  Rng r(29);
  auto s = r.hex_string(16);
  EXPECT_EQ(s.size(), 16u);
  for (char c : s) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'));
  }
}

// ----------------------------------------------------------------- strings

TEST(StringsTest, SplitPreservesEmptyFields) {
  auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, SplitWhitespaceDropsEmpty) {
  auto parts = split_whitespace("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim("\t\r\n"), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("no-trim"), "no-trim");
}

TEST(StringsTest, CaseAndAffixes) {
  EXPECT_EQ(to_lower("LustreError"), "lustreerror");
  EXPECT_TRUE(starts_with("c12-3c0s4n1", "c12"));
  EXPECT_FALSE(starts_with("c1", "c12"));
  EXPECT_TRUE(ends_with("error.log", ".log"));
  EXPECT_FALSE(ends_with("log", "error.log"));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(join(std::vector<std::string>{"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join(std::vector<std::string>{}, ","), "");
}

TEST(StringsTest, ParseInt) {
  long long v = 0;
  EXPECT_TRUE(parse_int("123", v));
  EXPECT_EQ(v, 123);
  EXPECT_TRUE(parse_int("-9223372036854775808", v));
  EXPECT_EQ(v, INT64_MIN);
  EXPECT_TRUE(parse_int("9223372036854775807", v));
  EXPECT_EQ(v, INT64_MAX);
  EXPECT_FALSE(parse_int("9223372036854775808", v));
  EXPECT_FALSE(parse_int("-9223372036854775809", v));
  // Inputs whose accumulator wraps past 2^64 are out of range, not wrapped.
  EXPECT_FALSE(parse_int("25000000000000000000", v));
  EXPECT_FALSE(parse_int("-25000000000000000000", v));
  EXPECT_FALSE(parse_int("18446744073709551616", v));
  EXPECT_FALSE(parse_int("99999999999999999999999", v));
  EXPECT_TRUE(parse_int("-0", v));
  EXPECT_EQ(v, 0);
  EXPECT_FALSE(parse_int("", v));
  EXPECT_FALSE(parse_int("-", v));
  EXPECT_FALSE(parse_int("12x", v));
  EXPECT_FALSE(parse_int("1 2", v));
}

TEST(StringsTest, FormatCount) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_count(-1234567), "-1,234,567");
}

// ------------------------------------------------------------------- stats

TEST(StatsTest, RunningStatsBasics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
  EXPECT_NEAR(s.cv(), 0.4, 1e-12);
}

TEST(StatsTest, MergeMatchesSequential) {
  RunningStats all;
  RunningStats a;
  RunningStats b;
  Rng r(31);
  for (int i = 0; i < 1000; ++i) {
    double x = r.normal(10, 3);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StatsTest, MergeWithEmpty) {
  RunningStats a;
  RunningStats empty;
  a.add(5.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 5.0);
}

TEST(StatsTest, HistogramBinning) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.0);
  h.add(1.9);
  h.add(2.0);
  h.add(9.99);
  h.add(10.0);   // clamps to last bin
  h.add(-5.0);   // clamps to first bin
  EXPECT_EQ(h.bin(0), 3u);
  EXPECT_EQ(h.bin(1), 1u);
  EXPECT_EQ(h.bin(4), 2u);
  EXPECT_EQ(h.total(), 6u);
  auto [lo, hi] = h.bin_range(1);
  EXPECT_DOUBLE_EQ(lo, 2.0);
  EXPECT_DOUBLE_EQ(hi, 4.0);
}

TEST(StatsTest, HistogramWeights) {
  Histogram h(0.0, 1.0, 1);
  h.add(0.5, 10);
  EXPECT_EQ(h.bin(0), 10u);
  EXPECT_EQ(h.total(), 10u);
}

TEST(StatsTest, HistogramAsciiRender) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5, 4);
  h.add(1.5, 2);
  auto art = h.render_ascii(10);
  EXPECT_NE(art.find("##########"), std::string::npos);  // full bar
  EXPECT_NE(art.find("#####\n"), std::string::npos);     // half bar
}

TEST(StatsTest, HistogramRejectsBadConfig) {
  EXPECT_ANY_THROW(Histogram(0.0, 0.0, 4));
  EXPECT_ANY_THROW(Histogram(0.0, 1.0, 0));
}

TEST(StatsTest, PearsonCorrelation) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{2, 4, 6, 8, 10};
  std::vector<double> z{5, 4, 3, 2, 1};
  std::vector<double> c{7, 7, 7, 7, 7};
  EXPECT_NEAR(pearson_correlation(x, y), 1.0, 1e-12);
  EXPECT_NEAR(pearson_correlation(x, z), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(pearson_correlation(x, c), 0.0);
}

// ------------------------------------------------------------- thread pool

TEST(ThreadPoolTest, SubmitReturnsValue) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, SubmitPropagatesException) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(100,
                                 [&](std::size_t i) {
                                   if (i == 50) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

TEST(ThreadPoolTest, WaitIdleDrainsQueue) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) pool.post([&] { done++; });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingWork) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.post([&] { done++; });
  }
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPoolTest, StealsFromBlockedWorkersQueue) {
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  // Park one worker on the gate. External posts round-robin across the two
  // deques, so roughly half of the following tasks land on the parked
  // worker's deque — the free worker must steal them to finish.
  pool.post([gate] { gate.wait(); });
  std::atomic<int> done{0};
  constexpr int kTasks = 100;
  for (int i = 0; i < kTasks; ++i) pool.post([&done] { done++; });
  while (done.load() < kTasks) std::this_thread::yield();
  EXPECT_GT(pool.steals(), 0u);
  release.set_value();
  pool.wait_idle();
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(4, [&](std::size_t) {
    // Inner loops run inline on the caller when the pool is saturated.
    for (int j = 0; j < 10; ++j) count++;
  });
  EXPECT_EQ(count.load(), 40);
}

// ----------------------------------------------------------------- logging

TEST(LoggingTest, LevelGate) {
  auto prev = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  HPCLA_LOG(kDebug) << "should be suppressed";
  set_log_level(prev);
}

}  // namespace
}  // namespace hpcla
