// Experiment harness: repeats a scenario over many random testbed
// placements (the paper's methodology for every CDF figure) and aggregates
// per-link and total throughput.
//
// Multiple access methods (n+, 802.11n, beamforming) are evaluated against
// the *same* sequence of worlds so that per-placement gain ratios
// (Fig. 13's x axis) are meaningful paired comparisons.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "channel/testbed.h"
#include "sim/round.h"
#include "util/supervisor.h"

namespace nplus::sim {

struct ThroughputSample {
  double total_mbps = 0.0;
  std::vector<double> per_link_mbps;  // indexed like Scenario::links
};

// One access-method round: returns airtime consumed and bits delivered per
// scenario link.
struct GenericRound {
  double duration_s = 0.0;
  std::vector<double> delivered_bits;
};
using RoundFn =
    std::function<GenericRound(const World&, util::Rng&)>;

struct ExperimentConfig {
  std::size_t n_placements = 100;
  std::size_t rounds_per_placement = 10;
  // round.fidelity selects abstracted vs full-PHY delivery scoring for
  // every method evaluated through this config (sim::Fidelity in round.h).
  RoundConfig round{};
  WorldConfig world{};
  std::uint64_t seed = 1;
  // Placements where any traffic pair's raw link SNR falls below this are
  // redrawn (up to 50 tries): the paper's experiments run between nodes
  // that can actually communicate, so dead pairs never enter the CDFs.
  double min_pair_snr_db = 8.0;
  // Worker threads evaluating placements concurrently. 0 = the global
  // ThreadPool (NPLUS_THREADS / --threads / hardware concurrency); 1 runs
  // inline with no threads. Results are bit-identical for any value: every
  // placement's RNG stream is forked from the master seed before dispatch
  // and samples are written by placement index.
  std::size_t n_threads = 0;
};

struct MethodResult {
  std::vector<ThroughputSample> samples;  // one per placement
};

struct SupervisedExperiment {
  std::vector<MethodResult> methods;    // one per RoundFn, in order
  std::vector<std::uint8_t> completed;  // per placement: samples valid?
  util::FailureReport report;
};

// Runs every method over the same placements, evaluating placements in
// parallel under a util::Supervisor. Placement p's world and rounds draw
// from a stream forked as master.fork(p + 1) before dispatch, and samples
// are written by placement index — the paper's paired-comparison
// methodology is preserved exactly, and the output is independent of the
// thread count and of scheduling order.
//
// A placement whose evaluation throws is quarantined into the report
// instead of aborting the experiment: its samples stay zeroed for every
// method and completed[p] == 0 flags them, so callers that need every
// placement check report.all_ok(). An optional watchdog cancels placements
// past their wall-clock budget (the round loop polls the token between
// rounds), and TransientError attempts are retried from a pristine copy of
// the placement's pre-forked stream. `supervisor.n_threads == 0` defers to
// config.n_threads (which itself falls back to the global pool); an empty
// stream_label defaults to "seed <config.seed>".
SupervisedExperiment run_experiment(
    const channel::Testbed& testbed, const Scenario& scenario,
    const ExperimentConfig& config, const std::vector<RoundFn>& methods,
    const util::SupervisorConfig& supervisor = {});

// Adapter: the n+ protocol as a RoundFn.
RoundFn make_nplus_round_fn(const Scenario& scenario,
                            const RoundConfig& config);

}  // namespace nplus::sim
