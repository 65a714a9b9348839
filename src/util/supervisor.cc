#include "util/supervisor.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <sstream>
#include <thread>

#include "util/thread_pool.h"

namespace nplus::util {

const char* failure_kind_name(FailureKind kind) {
  switch (kind) {
    case FailureKind::kException:
      return "exception";
    case FailureKind::kTimeout:
      return "timeout";
    case FailureKind::kInvariant:
      return "invariant";
  }
  return "unknown";
}

std::size_t FailureReport::count(FailureKind kind) const {
  std::size_t n = 0;
  for (const auto& f : failures) n += f.kind == kind ? 1 : 0;
  return n;
}

std::string FailureReport::summary() const {
  if (failures.empty()) return "";
  std::ostringstream os;
  os << failures.size() << " of " << n_items << " items quarantined ("
     << count(FailureKind::kException) << " exception, "
     << count(FailureKind::kTimeout) << " timeout, "
     << count(FailureKind::kInvariant) << " invariant)";
  for (const auto& f : failures) {
    os << "\n  item " << f.index << " [" << failure_kind_name(f.kind) << "]";
    if (!f.stream.empty()) os << " stream " << f.stream;
    os << ": " << f.what;
  }
  return os.str();
}

namespace {

double steady_now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One per pool worker: the watchdog monitor scans these. `deadline_s`
// doubles as the occupancy flag — negative means the worker is between
// items and must not be cancelled.
struct alignas(64) WatchSlot {
  std::atomic<double> deadline_s{-1.0};
  CancelToken token;
};

}  // namespace

FailureReport Supervisor::run(std::size_t n_items, const Body& body,
                              const std::vector<std::uint8_t>* skip) const {
  FailureReport report;
  report.n_items = n_items;
  if (n_items == 0) return report;

  // Resolve the worker count the pool will actually use so the watch-slot
  // table covers every worker id the body can run under.
  const std::size_t n_workers =
      cfg_.n_threads == 0 ? ThreadPool::global().n_threads() : cfg_.n_threads;
  std::vector<WatchSlot> slots(n_workers);

  // Watchdog monitor: one thread, woken every poll interval, cancelling
  // any occupied slot past its deadline. Started only when a budget is
  // configured so the common watchdog-off path costs nothing.
  std::atomic<bool> monitor_stop{false};
  std::thread monitor;
  if (cfg_.watchdog_s > 0.0) {
    monitor = std::thread([&] {
      const auto poll =
          std::chrono::duration<double>(std::min(0.01, cfg_.watchdog_s / 10.0));
      while (!monitor_stop.load(std::memory_order_relaxed)) {
        const double now = steady_now_s();
        for (auto& slot : slots) {
          const double deadline =
              slot.deadline_s.load(std::memory_order_relaxed);
          if (deadline >= 0.0 && now > deadline) slot.token.cancel();
        }
        std::this_thread::sleep_for(poll);
      }
    });
  }

  std::mutex report_m;
  ThreadPool::run(
      cfg_.n_threads, 0, n_items, [&](std::size_t i, std::size_t worker) {
        if (skip != nullptr && i < skip->size() && (*skip)[i] != 0) return;
        WatchSlot& slot = slots[worker];
        slot.token.reset();
        if (cfg_.watchdog_s > 0.0) {
          slot.deadline_s.store(steady_now_s() + cfg_.watchdog_s,
                                std::memory_order_relaxed);
        }
        ItemFailure f;
        f.index = i;
        try {
          body(i, slot.token);
          slot.deadline_s.store(-1.0, std::memory_order_relaxed);
          return;
        } catch (const TimeoutError& e) {
          f.kind = FailureKind::kTimeout;
          f.what = e.what();
        } catch (const InvariantError& e) {
          f.kind = FailureKind::kInvariant;
          f.what = e.what();
        } catch (const std::exception& e) {
          f.what = e.what();
        } catch (...) {
          f.what = "unknown exception (not derived from std::exception)";
        }
        slot.deadline_s.store(-1.0, std::memory_order_relaxed);
        // An exception thrown after the watchdog fired is almost always
        // the cancellation unwinding through code that wraps or translates
        // TimeoutError; classify it by its cause.
        if (f.kind == FailureKind::kException && slot.token.cancelled()) {
          f.kind = FailureKind::kTimeout;
        }
        std::lock_guard<std::mutex> lk(report_m);
        report.failures.push_back(std::move(f));
      });

  if (monitor.joinable()) {
    monitor_stop.store(true, std::memory_order_relaxed);
    monitor.join();
  }

  std::sort(report.failures.begin(), report.failures.end(),
            [](const ItemFailure& a, const ItemFailure& b) {
              return a.index < b.index;
            });
  return report;
}

}  // namespace nplus::util
