// The sweep executor: one topology, world and session per SweepItem
// (scenario_gen.h), under supervision, with periodic checkpointing and
// bit-exact resume. The topology is generated from SweepItem::gen or, for
// an item with on_testbed set, its fixed scenario placed on the testbed.
//
// Item i draws all its randomness from stream s = SweepItem::stream (by
// default i), the master Rng(seed)'s (s+1)-th fork, taken before any
// dispatch; the topology (or placement), world and session take forks
// 1/2/3 of it.
// Results are written by index, so a sweep is bit-identical for every
// thread count. Every item runs inside a util::Supervisor:
//
//   * a throwing item is quarantined into the FailureReport and the sweep
//     completes with partial results (the failed slot keeps a
//     default-constructed SessionResult);
//   * with a watchdog budget, a stuck item is cooperatively cancelled
//     through SessionConfig::cancel and recorded as timed out;
//   * every completed result passes the runtime invariant audit
//     (sim/audit.h) before it may be published or checkpointed;
//   * completed results are periodically serialized — together with the
//     sweep's pre-forked RNG stream table — into a versioned, CRC-protected
//     checkpoint file (util/checkpoint.h, atomic rename), and a resumed run
//     restores them bit-exactly, skips their items, and produces output
//     byte-identical to an uninterrupted run at any thread count.
//
// Determinism: each attempt of an item copies its immutable stream-table
// entry, so retries, resumes, and any thread count all replay the same
// draws. Callers that need every item check SweepOutcome::complete().
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/scenario_gen.h"
#include "util/checkpoint.h"
#include "util/supervisor.h"

namespace nplus::util {
class TraceCollector;
}

namespace nplus::sim {

struct RunnerConfig {
  // Supervision knobs (threads, watchdog budget, transient retries).
  util::SupervisorConfig supervisor{};
  // Run the invariant auditor over every completed result; violations are
  // quarantined like exceptions (FailureKind::kInvariant).
  bool audit = true;

  // Checkpoint file path; empty disables checkpointing entirely.
  std::string checkpoint_path;
  // Completed items between checkpoint writes (>= 1; 0 makes the
  // constructor throw std::invalid_argument). The final state is
  // always written once the sweep finishes, whatever the cadence.
  std::size_t checkpoint_every = 4;
  // Load checkpoint_path before running and skip its completed items. The
  // file must match this sweep's seed, item count, and pre-forked stream
  // table; a mismatched or corrupt checkpoint throws util::CheckpointError
  // instead of silently resuming the wrong sweep.
  bool resume = false;

  // --- Chaos hooks (tests and CI kill/resume drills) ---------------------
  // Hard-exit (std::_Exit(kKillExitCode), simulating a kill -9) as soon as
  // a checkpoint containing >= kill_after freshly completed items has been
  // written. 0 = never. Requires checkpointing.
  std::size_t kill_after = 0;
  // In-process variant of kill_after for unit tests: stop dispatching
  // after this many fresh completions (items not yet started are left
  // incomplete, in-flight items finish) and return the partial outcome.
  // 0 = never.
  std::size_t halt_after = 0;
  // Test-only result corruption, applied before the audit/publish step —
  // the hook the invariant-auditor tests use to seed a violation.
  std::function<void(std::size_t, SessionResult&)> chaos_mutate;

  // Optional telemetry (util/trace.h): a collector with >= items.size()
  // rings. Item i writes exclusively into ring(i) — worker ids are logical
  // item indices, so the post-hoc (worker, seq) merge is byte-identical at
  // any thread count. The runner emits kItemStart/kItemEnd around each
  // item and threads the ring into SessionConfig::trace (round + kernel
  // events). Each checkpoint record carries its item's ring, so a resumed
  // run merges the same records as an uninterrupted one; runner-level
  // events whose order is scheduling-dependent (checkpoint writes) are
  // deliberately not traced. nullptr disables tracing.
  util::TraceCollector* trace = nullptr;
};

struct SweepOutcome {
  // One slot per item; failed/incomplete slots hold default-constructed
  // results. `completed[i]` says whether results[i] is real data.
  std::vector<SessionResult> results;
  std::vector<std::uint8_t> completed;
  util::FailureReport report;
  // Items restored from the checkpoint instead of recomputed.
  std::size_t resumed = 0;

  bool complete() const;  // every item completed (no failures, no halt)
};

class CheckpointedRunner {
 public:
  // Exit code of the kill_after chaos hook, distinguishable from every
  // normal failure path so CI can assert the kill actually happened.
  static constexpr int kKillExitCode = 42;

  CheckpointedRunner(std::vector<SweepItem> items, std::uint64_t seed,
                     RunnerConfig config);

  SweepOutcome run();

 private:
  std::vector<SweepItem> items_;
  std::uint64_t seed_;
  RunnerConfig cfg_;
};

// --- Serialization (exposed for tests) -----------------------------------
// Bit-exact binary round-trip of a SessionResult: every field, including
// the RunningStats accumulators, the snapshot series, and FaultStats.
void serialize_session_result(const SessionResult& r, util::ByteWriter& w);
SessionResult deserialize_session_result(util::ByteReader& r);

}  // namespace nplus::sim
