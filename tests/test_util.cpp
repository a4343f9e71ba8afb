#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "genasmx/util/mem_stats.hpp"
#include "genasmx/util/prng.hpp"
#include "genasmx/util/stats.hpp"
#include "genasmx/util/thread_pool.hpp"
#include "genasmx/util/timer.hpp"

namespace gx::util {
namespace {

TEST(Prng, DeterministicBySeed) {
  Xoshiro256 a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    const auto x = a();
    EXPECT_EQ(x, b());
    (void)c;
  }
  Xoshiro256 d(42), e(43);
  int diff = 0;
  for (int i = 0; i < 100; ++i) diff += d() != e();
  EXPECT_GT(diff, 90);  // different seeds -> different streams
}

TEST(Prng, BelowStaysInBounds) {
  Xoshiro256 rng(1);
  for (int bound : {1, 2, 3, 17, 1000}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.below(static_cast<std::uint64_t>(bound)),
                static_cast<std::uint64_t>(bound));
    }
  }
}

TEST(Prng, BelowCoversRange) {
  Xoshiro256 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 400; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Prng, RangeInclusive) {
  Xoshiro256 rng(3);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    hit_lo |= v == -2;
    hit_hi |= v == 2;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Prng, Uniform01InUnitInterval) {
  Xoshiro256 rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Prng, ForkProducesIndependentStream) {
  Xoshiro256 rng(5);
  Xoshiro256 child = rng.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += rng() == child();
  EXPECT_LT(same, 5);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  volatile double keep = sink;
  (void)keep;
  EXPECT_GE(t.seconds(), 0.0);
  EXPECT_GE(t.nanos(), 0u);
}

TEST(Summary, MeanAndStddev) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Summary, Percentiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_NEAR(s.median(), 50.5, 0.01);
  EXPECT_NEAR(s.percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.percentile(95), 95.05, 0.1);
}

TEST(Summary, MergeMatchesCombinedStream) {
  Summary a, b, all;
  Xoshiro256 rng(9);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform01() * 10;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.stddev(), all.stddev(), 1e-9);
}

TEST(Summary, EmptyIsSafe) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.percentile(50), 0.0);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i]++;
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForHonorsMinChunkAndRunsALoneChunkInline) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  pool.parallel_for(
      100,
      [&](std::size_t b, std::size_t e) {
        const std::lock_guard<std::mutex> lock(mu);
        ranges.emplace_back(b, e);
      },
      30);
  std::sort(ranges.begin(), ranges.end());
  const std::vector<std::pair<std::size_t, std::size_t>> expected = {
      {0, 30}, {30, 60}, {60, 90}, {90, 100}};
  EXPECT_EQ(ranges, expected);

  std::thread::id ran_on;
  pool.parallel_for(
      5, [&](std::size_t, std::size_t) { ran_on = std::this_thread::get_id(); },
      8);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) pool.submit([&done] { ++done; });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPool, EmptyParallelFor) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(MemStats, CountingCounterAccumulates) {
  MemStats stats;
  CountingMemCounter c(stats);
  c.problem();
  c.alloc(1000);
  c.store(5);
  c.load(3);
  c.alloc(500);
  c.free(1500);
  EXPECT_EQ(stats.dp_stores, 5u);
  EXPECT_EQ(stats.dp_loads, 3u);
  EXPECT_EQ(stats.accesses(), 8u);
  EXPECT_EQ(stats.bytes_allocated, 1500u);
  EXPECT_EQ(stats.bytes_peak, 1500u);
  EXPECT_EQ(stats.problems, 1u);
}

TEST(MemStats, PeakTracksHighWater) {
  MemStats stats;
  CountingMemCounter c(stats);
  c.alloc(100);
  c.free(100);
  c.alloc(60);
  c.free(60);
  EXPECT_EQ(stats.bytes_peak, 100u);
  EXPECT_EQ(stats.bytes_allocated, 160u);
}

TEST(MemStats, Accumulate) {
  MemStats a, b;
  a.dp_stores = 10;
  a.bytes_peak = 100;
  a.problems = 1;
  b.dp_stores = 5;
  b.bytes_peak = 200;
  b.problems = 2;
  a += b;
  EXPECT_EQ(a.dp_stores, 15u);
  EXPECT_EQ(a.bytes_peak, 200u);  // max, not sum
  EXPECT_EQ(a.problems, 3u);
}

TEST(MemStats, NullCounterCompilesAway) {
  NullMemCounter c;
  c.store();
  c.load();
  c.alloc(10);
  c.free(10);
  c.problem();
  SUCCEED();
}

}  // namespace
}  // namespace gx::util
