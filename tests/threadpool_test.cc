// ThreadPool contract tests: exception propagation, reuse after failure,
// FI_THREADS parsing, and basic ParallelFor correctness with real workers.
#include "util/threadpool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace flashinfer {
namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  constexpr int64_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kN, [&](int64_t i) { hits[i].fetch_add(1); });
  for (int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SerialFallbacksStillRun) {
  ThreadPool pool(1);  // No workers: everything runs on the caller.
  int64_t sum = 0;
  pool.ParallelFor(100, [&](int64_t i) { sum += i; });
  EXPECT_EQ(sum, 4950);
  pool.ParallelFor(0, [&](int64_t) { FAIL() << "n=0 must not invoke fn"; });
}

TEST(ThreadPoolTest, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(1000,
                       [&](int64_t i) {
                         if (i == 137) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
}

TEST(ThreadPoolTest, ExceptionSkipsRemainingWorkAndPoolStaysUsable) {
  ThreadPool pool(4);
  std::atomic<int64_t> ran{0};
  bool threw = false;
  try {
    pool.ParallelFor(100000, [&](int64_t i) {
      if (i == 0) throw std::runtime_error("early poison");
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  } catch (const std::runtime_error& e) {
    threw = true;
    EXPECT_STREQ(e.what(), "early poison");
  }
  EXPECT_TRUE(threw);
  // The poison lands on index 0, so the bulk of the range should be skipped
  // (claimed-but-not-run). Exact count depends on scheduling; "not all"
  // is the contract.
  EXPECT_LT(ran.load(), 100000 - 1);

  // The pool must survive a failed task and run the next one normally.
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(1000, [&](int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 499500);
}

TEST(ThreadPoolTest, ExceptionOnSerialPathPropagatesToo) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.ParallelFor(10, [](int64_t i) {
    if (i == 3) throw std::logic_error("serial boom");
  }),
               std::logic_error);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<int64_t> inner_total{0};
  pool.ParallelFor(8, [&](int64_t) {
    // Nested call: must not deadlock; runs serially on the calling worker.
    pool.ParallelFor(16, [&](int64_t j) { inner_total.fetch_add(j); });
  });
  EXPECT_EQ(inner_total.load(), 8 * 120);
}

TEST(ThreadPoolTest, ManySmallLaunches) {
  ThreadPool pool(3);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> n{0};
    pool.ParallelFor(7, [&](int64_t) { n++; });
    ASSERT_EQ(n.load(), 7);
  }
}

TEST(ThreadPoolTest, EnvThreadsParsing) {
  const char* saved = std::getenv("FI_THREADS");
  std::string saved_val = saved ? saved : "";

  ::unsetenv("FI_THREADS");
  EXPECT_EQ(ThreadPool::EnvThreads(), 0);
  ::setenv("FI_THREADS", "6", 1);
  EXPECT_EQ(ThreadPool::EnvThreads(), 6);
  ::setenv("FI_THREADS", "1", 1);
  EXPECT_EQ(ThreadPool::EnvThreads(), 1);
  // Invalid values fall back to auto (0): non-numeric, trailing junk,
  // non-positive, absurd.
  ::setenv("FI_THREADS", "lots", 1);
  EXPECT_EQ(ThreadPool::EnvThreads(), 0);
  ::setenv("FI_THREADS", "4x", 1);
  EXPECT_EQ(ThreadPool::EnvThreads(), 0);
  ::setenv("FI_THREADS", "-2", 1);
  EXPECT_EQ(ThreadPool::EnvThreads(), 0);
  ::setenv("FI_THREADS", "0", 1);
  EXPECT_EQ(ThreadPool::EnvThreads(), 0);
  ::setenv("FI_THREADS", "99999", 1);
  EXPECT_EQ(ThreadPool::EnvThreads(), 0);

  if (saved) {
    ::setenv("FI_THREADS", saved_val.c_str(), 1);
  } else {
    ::unsetenv("FI_THREADS");
  }
}

TEST(ThreadPoolTest, GlobalIsUsable) {
  // Global() must work regardless of FI_THREADS; a second call returns the
  // same pool (construct-on-first-use).
  ThreadPool& a = ThreadPool::Global();
  ThreadPool& b = ThreadPool::Global();
  EXPECT_EQ(&a, &b);
  std::atomic<int64_t> sum{0};
  a.ParallelFor(64, [&](int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 2016);
}

}  // namespace
}  // namespace flashinfer
