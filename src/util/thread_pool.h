// Thread pool for the experiment harness.
//
// The simulator's outer loops (sweep items, signal-experiment trials) are
// embarrassingly parallel once each iteration owns a pre-forked RNG stream,
// so the pool exposes a blocking `parallel_for` rather than a futures API.
// Workers claim indices one at a time from a shared atomic cursor, so a
// costly item (a placement redraws up to 50 worlds) only delays the worker
// that claimed it; the others keep claiming.
//
// Determinism contract: `parallel_for(begin, end, body)` calls
// `body(i, worker)` exactly once for every i in [begin, end), in an
// unspecified order and with unspecified worker assignment. Callers that
// need reproducible results must (a) derive all randomness for iteration i
// from state forked *before* dispatch (see Rng::fork) and (b) write output
// by index, never append. Every call site in sim/ follows this contract, so
// experiment results are bit-identical for any thread count.
//
// The calling thread participates as worker 0: a pool of n threads spawns
// n-1 OS threads, and a pool of 1 runs entirely inline (no threads, no
// locks) — the serial path is the parallel path with n = 1, not separate
// code. Nested `parallel_for` calls from inside a worker run inline for the
// same reason. Workers persist across calls, so thread_local workspaces
// (phy/) outlive a single sweep.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace nplus::util {

// Thread count used when a caller passes 0 ("pick for me"): the
// NPLUS_THREADS environment variable if set to a positive integer,
// otherwise std::thread::hardware_concurrency(), otherwise 1. Read on every
// call so tests can adjust the environment.
std::size_t default_thread_count();

class ThreadPool {
 public:
  // n_threads == 0 means default_thread_count().
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t n_threads() const { return n_threads_; }

  // body(index, worker) with worker in [0, n_threads()). Blocks until every
  // claimed index has run. After a body throws, workers stop claiming new
  // indices; the ones already claimed still run, so the indices that ran
  // are always a prefix of the range. The original exception of the lowest
  // failing index is then rethrown here — for deterministic bodies, exactly
  // what the serial loop would throw.
  // Concurrent top-level calls on the same pool are serialized (the second
  // dispatcher blocks until the first job completes); calls from inside a
  // worker run inline.
  using IndexFn = std::function<void(std::size_t, std::size_t)>;
  void parallel_for(std::size_t begin, std::size_t end, const IndexFn& body);

  // Process-wide pool, built lazily at default_thread_count() (or the last
  // set_global_threads value). Shared by the experiment harness whenever a
  // config leaves n_threads at 0.
  static ThreadPool& global();

  // Resizes the global pool (0 = back to default). Intended for program
  // startup (--threads flags); not safe while another thread is inside
  // global().parallel_for.
  static void set_global_threads(std::size_t n);

  // Convenience used across sim/: run on the global pool when n_threads is
  // 0, otherwise on a transient pool of exactly n_threads.
  static void run(std::size_t n_threads, std::size_t begin, std::size_t end,
                  const IndexFn& body);

  // The determinism contract, packaged: forks one Rng per item from
  // Rng(seed) — label i + 1, in item order, *before* dispatch — then runs
  // body(i, rng_i) concurrently (n_threads as in run()). Whatever worker
  // evaluates item i, it sees exactly the stream the serial loop would
  // have handed it, so callers that also write results by index are
  // bit-identical for every thread count. Use this instead of hand-rolling
  // the fork-then-dispatch pattern.
  template <typename Body>
  static void run_seeded(std::size_t n_threads, std::uint64_t seed,
                         std::size_t n, Body&& body) {
    Rng master(seed);
    std::vector<Rng> rngs;
    rngs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) rngs.push_back(master.fork(i + 1));
    run(n_threads, 0, n,
        [&](std::size_t i, std::size_t) { body(i, rngs[i]); });
  }

 private:
  void worker_main(std::size_t worker);
  // Claims and runs indices until the range is exhausted or cancelled.
  void work(std::size_t worker);

  std::size_t n_threads_ = 1;
  std::vector<std::thread> threads_;

  std::mutex dispatch_m_;  // serializes top-level parallel_for callers
  std::mutex m_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  const IndexFn* body_ = nullptr;  // non-null while a job is in flight
  std::uint64_t job_ = 0;          // bumped per parallel_for dispatch
  std::size_t active_ = 0;         // participants not yet finished
  bool stop_ = false;
  std::size_t end_ = 0;               // one past the job's last index
  std::atomic<std::size_t> next_{0};  // the next unclaimed index
  std::atomic<bool> cancel_{false};   // set on the first exception
  std::exception_ptr error_;          // lowest failing index's exception
  std::size_t error_index_ = 0;       // that index (error_ and it: m_)
};

}  // namespace nplus::util
