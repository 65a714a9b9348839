// Supervised parallel item execution for the experiment harness.
//
// util::ThreadPool gives the harness *throughput*; the Supervisor gives it
// *survival*. A bare `parallel_for` dies whole-sale: one thrown item aborts
// the entire sweep, and a wedged item blocks the join forever. The
// Supervisor runs the same index range with per-item structured error
// capture — a failed item is quarantined into a FailureReport (index,
// exception text, failure kind) and every other item still completes —
// plus an optional per-item wall-clock watchdog (a monitor thread cancels
// over-budget items through a cooperative CancelToken).
//
// Cancellation is cooperative by design: the monitor cannot kill a thread,
// it can only raise the item's CancelToken. Long-running bodies poll the
// token at natural boundaries (sim::run_session polls it every round via
// SessionConfig::cancel) and abort by throwing TimeoutError. A body that
// never polls simply cannot be timed out — the watchdog contract is only
// as strong as the body's polling discipline.
//
// Determinism: the Supervisor adds no RNG draws and does not reorder item
// dispatch relative to ThreadPool::run, so a sweep in which nothing fails
// is bit-identical to an unsupervised one. Timeouts depend on wall clock
// and are therefore machine-dependent; sweeps that need reproducible output
// run with the watchdog off (the default) or treat a timeout as what it is:
// a quarantined, machine-local failure.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace nplus::util {

// Cooperative cancellation flag shared between the watchdog monitor (the
// only writer) and the item body (the only reader). Poll at loop
// boundaries; on true, unwind by throwing TimeoutError.
class CancelToken {
 public:
  void cancel() { flag_.store(true, std::memory_order_relaxed); }
  void reset() { flag_.store(false, std::memory_order_relaxed); }
  bool cancelled() const { return flag_.load(std::memory_order_relaxed); }

 private:
  std::atomic<bool> flag_{false};
};

// Thrown by cancellation points when their CancelToken fired. The
// Supervisor records it as FailureKind::kTimeout.
struct TimeoutError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Thrown by runtime invariant auditors (sim::audit_session) when a result
// violates a conservation law; quarantined as FailureKind::kInvariant so a
// corrupt result is never silently published as data.
struct InvariantError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

enum class FailureKind {
  kException,  // body threw
  kTimeout,    // watchdog cancelled the item past its wall-clock budget
  kInvariant,  // the item's result failed a runtime invariant audit
};

const char* failure_kind_name(FailureKind kind);

struct ItemFailure {
  std::size_t index = 0;
  FailureKind kind = FailureKind::kException;
  std::string what;  // exception text / violated invariants
  // RNG-stream label, e.g. "fork(6) of seed 7", so the item can be
  // replayed in isolation; filled by the caller that owns the streams
  // (sim::CheckpointedRunner), empty from a bare Supervisor.
  std::string stream;
};

// The quarantine ledger of one supervised run.
struct FailureReport {
  std::vector<ItemFailure> failures;  // sorted by item index
  std::size_t n_items = 0;            // items offered to the run

  bool all_ok() const { return failures.empty(); }
  std::size_t count(FailureKind kind) const;
  // One line per failure plus a header; "" when all_ok().
  std::string summary() const;
};

struct SupervisorConfig {
  // Worker threads, as in ThreadPool::run: 0 = the global pool.
  std::size_t n_threads = 0;
  // Per-item wall-clock budget in seconds; 0 disables the watchdog (no
  // monitor thread is started at all, keeping the zero-failure path free).
  // The monitor wakes every min(10 ms, watchdog_s / 10), so a timeout
  // fires at most that long after the budget runs out.
  double watchdog_s = 0.0;
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorConfig config) : cfg_(std::move(config)) {}

  // Runs body(i, token) for every i in [0, n_items) on the thread pool,
  // capturing per-item failures instead of propagating them. `skip`
  // (optional, size n_items) marks items that are already complete — they
  // are neither run nor counted as failures (the checkpoint/resume hook).
  //
  // The body owns all determinism obligations (pre-forked streams, write
  // by index).
  using Body = std::function<void(std::size_t, CancelToken&)>;
  FailureReport run(std::size_t n_items, const Body& body,
                    const std::vector<std::uint8_t>* skip = nullptr) const;

  const SupervisorConfig& config() const { return cfg_; }

 private:
  SupervisorConfig cfg_;
};

}  // namespace nplus::util
