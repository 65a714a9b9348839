// Tests for util::ThreadPool: coverage, stealing under imbalance, nested
// dispatch, exception propagation, and the global-pool
// configuration knobs. These run under the `tsan` ctest label so a
// ThreadSanitizer build (cmake -DNPLUS_SANITIZE=thread) exercises them.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace nplus::util {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(0, n, [&](std::size_t i, std::size_t) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, RespectsBeginOffset) {
  ThreadPool pool(3);
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(100, 200, [&](std::size_t i, std::size_t) {
    sum.fetch_add(i, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), (100u + 199u) * 100u / 2u);
}

TEST(ThreadPool, WorkerIdsWithinRange) {
  ThreadPool pool(4);
  std::atomic<bool> bad{false};
  pool.parallel_for(0, 1000, [&](std::size_t, std::size_t w) {
    if (w >= pool.n_threads()) bad.store(true);
  });
  EXPECT_FALSE(bad.load());
}

TEST(ThreadPool, EmptyAndSingletonRanges) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // A 1-element range runs inline on the caller.
  pool.parallel_for(7, 8, [&](std::size_t i, std::size_t w) {
    ++calls;
    EXPECT_EQ(i, 7u);
    EXPECT_EQ(w, 0u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  bool same_thread = true;
  pool.parallel_for(0, 64, [&](std::size_t, std::size_t w) {
    same_thread = same_thread && std::this_thread::get_id() == caller;
    EXPECT_EQ(w, 0u);
  });
  EXPECT_TRUE(same_thread);
}

TEST(ThreadPool, StealsFromUnbalancedShards) {
  // Front-loaded cost: the first quarter of the range does all the work.
  // With static contiguous partitioning alone, worker 0 would run ~4x
  // longer than the rest; stealing must still cover everything exactly
  // once (checked) and keep the pool deadlock-free with tiny shards.
  ThreadPool pool(4);
  const std::size_t n = 64;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(0, n, [&](std::size_t i, std::size_t) {
    if (i < n / 4) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  const std::size_t outer = 16, inner = 32;
  std::vector<std::atomic<int>> hits(outer * inner);
  pool.parallel_for(0, outer, [&](std::size_t o, std::size_t) {
    pool.parallel_for(0, inner, [&](std::size_t i, std::size_t w) {
      EXPECT_EQ(w, 0u);  // nested dispatch is inline
      hits[o * inner + i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  auto boom = [&](std::size_t i, std::size_t) {
    if (i == 37) throw std::runtime_error("boom");
  };
  EXPECT_THROW(pool.parallel_for(0, 1000, boom), std::runtime_error);
  // Pool is reusable after an exception.
  std::atomic<std::size_t> count{0};
  pool.parallel_for(0, 100, [&](std::size_t, std::size_t) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 100u);
}

TEST(ThreadPool, ManySmallJobsStress) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(0, 50, [&](std::size_t i, std::size_t) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 49u * 50u / 2u);
  }
}

TEST(ThreadPool, DefaultThreadCountHonorsEnv) {
  ASSERT_EQ(setenv("NPLUS_THREADS", "3", 1), 0);
  EXPECT_EQ(default_thread_count(), 3u);
  ASSERT_EQ(setenv("NPLUS_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(default_thread_count(), 1u);  // falls back to hardware
  ASSERT_EQ(unsetenv("NPLUS_THREADS"), 0);
  EXPECT_GE(default_thread_count(), 1u);
}

TEST(ThreadPool, GlobalPoolResizable) {
  ThreadPool::set_global_threads(2);
  EXPECT_EQ(ThreadPool::global().n_threads(), 2u);
  ThreadPool::set_global_threads(0);  // back to default
  EXPECT_EQ(ThreadPool::global().n_threads(), default_thread_count());
}

TEST(ThreadPool, RunSeededDeterministicAcrossThreadCounts) {
  auto collect = [](std::size_t n_threads) {
    std::vector<double> out(64);
    ThreadPool::run_seeded(n_threads, 99, out.size(),
                           [&](std::size_t i, Rng& rng) {
                             double acc = 0.0;
                             for (int d = 0; d < 16; ++d) acc += rng.uniform();
                             out[i] = acc;
                           });
    return out;
  };
  const auto serial = collect(1);
  const auto parallel = collect(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial[i], parallel[i]) << i;
  }
  // Streams must differ between items (forked, not shared).
  EXPECT_NE(serial[0], serial[1]);
}

TEST(ThreadPool, ConcurrentTopLevelDispatchSerialized) {
  // Two outside threads dispatch onto the same pool at once; both jobs
  // must complete with full coverage (dispatch is serialized internally).
  ThreadPool pool(3);
  std::vector<std::atomic<int>> a(512), b(512);
  std::thread t1([&] {
    pool.parallel_for(0, a.size(), [&](std::size_t i, std::size_t) {
      a[i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  std::thread t2([&] {
    pool.parallel_for(0, b.size(), [&](std::size_t i, std::size_t) {
      b[i].fetch_add(1, std::memory_order_relaxed);
    });
  });
  t1.join();
  t2.join();
  for (auto& h : a) EXPECT_EQ(h.load(), 1);
  for (auto& h : b) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RunHelperUsesTransientPool) {
  std::vector<std::atomic<int>> hits(256);
  ThreadPool::run(3, 0, 256, [&](std::size_t i, std::size_t w) {
    EXPECT_LT(w, 3u);
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace nplus::util
