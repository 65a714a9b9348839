#include "util/thread_pool.h"

#include <cstdlib>
#include <memory>

namespace nplus::util {

namespace {

// True on any thread currently executing inside a parallel_for (the caller
// while it participates, and every pool worker for its lifetime). Nested
// dispatch from such a thread runs inline: the outer job already owns the
// hardware, and blocking a worker on an inner job could deadlock the pool.
thread_local bool t_inside_pool = false;

struct InsideGuard {
  bool prev;
  InsideGuard() : prev(t_inside_pool) { t_inside_pool = true; }
  ~InsideGuard() { t_inside_pool = prev; }
};

}  // namespace

std::size_t default_thread_count() {
  if (const char* env = std::getenv("NPLUS_THREADS")) {
    char* rest = nullptr;
    const long v = std::strtol(env, &rest, 10);
    if (rest != env && v >= 1) return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(std::size_t n_threads)
    : n_threads_(n_threads == 0 ? default_thread_count() : n_threads) {
  threads_.reserve(n_threads_ - 1);
  for (std::size_t w = 1; w < n_threads_; ++w) {
    threads_.emplace_back([this, w] { worker_main(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::worker_main(std::size_t worker) {
  t_inside_pool = true;
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(m_);
      wake_cv_.wait(lk, [&] { return stop_ || job_ != seen; });
      if (stop_) return;
      seen = job_;
    }
    work(worker);
    {
      std::lock_guard<std::mutex> lk(m_);
      if (--active_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::work(std::size_t worker) {
  // Cancellation is checked before a claim, never between a claim and its
  // run: the indices that ran are always a prefix of the range, so the
  // lowest failing index is the one the serial loop would have hit first.
  while (!cancel_.load(std::memory_order_relaxed)) {
    const std::size_t i = next_.fetch_add(1);
    if (i >= end_) return;
    try {
      (*body_)(i, worker);
    } catch (...) {
      std::lock_guard<std::mutex> lk(m_);
      if (!error_ || i < error_index_) {
        error_ = std::current_exception();
        error_index_ = i;
      }
      cancel_.store(true, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const IndexFn& body) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  if (t_inside_pool || n_threads_ == 1 || n == 1) {
    InsideGuard guard;
    for (std::size_t i = begin; i < end; ++i) body(i, 0);
    return;
  }

  // One job in flight at a time: a second top-level dispatcher waits here
  // until the current job fully drains (workers never take this lock).
  std::lock_guard<std::mutex> dispatch_lock(dispatch_m_);
  {
    std::lock_guard<std::mutex> lk(m_);
    body_ = &body;
    end_ = end;
    next_.store(begin);
    cancel_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    active_ = n_threads_;
    ++job_;
  }
  wake_cv_.notify_all();

  {
    InsideGuard guard;
    work(0);
  }

  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lk(m_);
    --active_;
    done_cv_.wait(lk, [&] { return active_ == 0; });
    body_ = nullptr;
    error.swap(error_);
  }
  if (error) std::rethrow_exception(error);
}

namespace {
std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;
std::size_t g_pool_threads = 0;  // last set_global_threads request
}  // namespace

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lk(g_pool_mutex);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(g_pool_threads);
  return *g_pool;
}

void ThreadPool::set_global_threads(std::size_t n) {
  std::lock_guard<std::mutex> lk(g_pool_mutex);
  g_pool_threads = n;
  const std::size_t want = n == 0 ? default_thread_count() : n;
  if (g_pool && g_pool->n_threads() != want) g_pool.reset();
}

void ThreadPool::run(std::size_t n_threads, std::size_t begin, std::size_t end,
                     const IndexFn& body) {
  if (n_threads == 0) {
    global().parallel_for(begin, end, body);
  } else {
    ThreadPool pool(n_threads);
    pool.parallel_for(begin, end, body);
  }
}

}  // namespace nplus::util
