// End-to-end wall-clock benchmark of the parallel experiment harness.
//
// Times a representative paper experiment — run_experiment over the Fig. 3
// three-pair scenario, 100 random placements, n+ vs 802.11n — at 1, 2, 4
// and hardware_concurrency() threads, plus a Fig. 11(a) nulling sweep, and
// verifies that every thread count reproduces the single-thread results
// bit-for-bit (the determinism contract of the placement sharding).
//
//   ./e2e_experiments [output.json] [--threads N]
//
// Writes a JSON record (default BENCH_e2e.json) with per-thread-count
// wall-clock times and speedups over the serial baseline.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "baselines/dot11n.h"
#include "channel/testbed.h"
#include "sim/runner.h"
#include "sim/scenarios.h"
#include "sim/signal_experiments.h"
#include "util/cli.h"
#include "util/thread_pool.h"

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A parallel run reproduces the serial one only if it completed too.
bool identical(const nplus::sim::SupervisedExperiment& ea,
               const nplus::sim::SupervisedExperiment& eb) {
  if (!eb.report.all_ok()) return false;
  const auto& a = ea.methods;
  const auto& b = eb.methods;
  if (a.size() != b.size()) return false;
  for (std::size_t m = 0; m < a.size(); ++m) {
    if (a[m].samples.size() != b[m].samples.size()) return false;
    for (std::size_t p = 0; p < a[m].samples.size(); ++p) {
      const auto& sa = a[m].samples[p];
      const auto& sb = b[m].samples[p];
      if (sa.total_mbps != sb.total_mbps) return false;
      if (sa.per_link_mbps != sb.per_link_mbps) return false;
    }
  }
  return true;
}

struct Timing {
  std::size_t threads = 0;
  double seconds = 0.0;
  bool matches_serial = true;
};

constexpr const char* kUsage = "[output.json] [--threads N]";

int run_bench(int argc, char** argv) {
  using namespace nplus;
  util::init_threads_from_cli(argc, argv, /*strict=*/true);
  util::reject_unknown_flags(argc, argv);
  if (argc > 2) {
    throw util::UsageError("expected at most one positional argument "
                           "(the output path)");
  }
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_e2e.json";

  const channel::Testbed testbed;
  const sim::Scenario scenario = sim::three_pair_scenario();

  sim::ExperimentConfig cfg;
  cfg.n_placements = 100;
  cfg.rounds_per_placement = 6;
  cfg.seed = 42;
  cfg.round.include_overheads = false;
  const std::vector<sim::RoundFn> methods = {
      sim::make_nplus_round_fn(scenario, cfg.round),
      baselines::make_dot11n_round_fn(scenario, cfg.round)};

  const std::size_t hw = util::default_thread_count();
  std::vector<std::size_t> counts = {1, 2, 4, hw};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());

  std::printf("=== e2e: run_experiment, three-pair scenario, %zu placements "
              "x %zu rounds, 2 methods ===\n",
              cfg.n_placements, cfg.rounds_per_placement);

  // Serial baseline (and reference output for the identity check). One
  // warmup run populates the process-wide caches (FFT plans, trellis,
  // smoothing bases) so every timed configuration starts warm.
  cfg.n_threads = 1;
  (void)sim::run_experiment(testbed, scenario, cfg, methods);
  const double t0 = now_s();
  const auto serial = sim::run_experiment(testbed, scenario, cfg, methods);
  const double serial_s = now_s() - t0;
  if (!serial.report.all_ok()) {
    std::fputs(serial.report.summary().c_str(), stderr);
    return 1;
  }

  std::vector<Timing> timings;
  timings.push_back({1, serial_s, true});
  std::printf("%8s %12s %10s %10s\n", "threads", "seconds", "speedup",
              "identical");
  std::printf("%8zu %12.3f %9.2fx %10s\n", std::size_t{1}, serial_s, 1.0,
              "ref");

  for (const std::size_t n : counts) {
    if (n == 1) continue;
    cfg.n_threads = n;
    const double t1 = now_s();
    const auto res = sim::run_experiment(testbed, scenario, cfg, methods);
    const double dt = now_s() - t1;
    const bool same = identical(serial, res);
    timings.push_back({n, dt, same});
    std::printf("%8zu %12.3f %9.2fx %10s\n", n, dt, serial_s / dt,
                same ? "yes" : "NO");
  }

  // Fig. 11(a)-style signal sweep: heavier per-item cost, fewer items.
  sim::SignalExpConfig scfg;
  scfg.seed = 31;
  const std::size_t kSweepTrials = 40;
  const double s0 = now_s();
  const auto sweep_serial =
      sim::run_nulling_sweep(testbed, kSweepTrials, scfg, 1);
  const double sweep_serial_s = now_s() - s0;
  const double s1 = now_s();
  const auto sweep_par =
      sim::run_nulling_sweep(testbed, kSweepTrials, scfg, hw);
  const double sweep_par_s = now_s() - s1;
  bool sweep_same = sweep_serial.size() == sweep_par.size();
  for (std::size_t i = 0; sweep_same && i < sweep_serial.size(); ++i) {
    sweep_same = sweep_serial[i].wanted_snr_db == sweep_par[i].wanted_snr_db &&
                 sweep_serial[i].snr_after_db == sweep_par[i].snr_after_db &&
                 sweep_serial[i].cancellation_db ==
                     sweep_par[i].cancellation_db;
  }
  std::printf("\nnulling sweep (%zu trials): serial %.3f s, %zu threads "
              "%.3f s (%.2fx), identical: %s\n",
              kSweepTrials, sweep_serial_s, hw, sweep_par_s,
              sweep_serial_s / sweep_par_s, sweep_same ? "yes" : "NO");

  bool all_same = sweep_same;
  for (const auto& t : timings) all_same = all_same && t.matches_serial;

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"e2e_experiments\",\n");
  std::fprintf(f, "  \"host\": {\"hardware_concurrency\": %u, "
                  "\"default_threads\": %zu},\n",
               std::thread::hardware_concurrency(), hw);
  std::fprintf(f,
               "  \"experiment\": {\"scenario\": \"three_pair\", "
               "\"n_placements\": %zu, \"rounds_per_placement\": %zu, "
               "\"methods\": [\"nplus\", \"dot11n\"], \"seed\": %llu},\n",
               cfg.n_placements, cfg.rounds_per_placement,
               static_cast<unsigned long long>(cfg.seed));
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < timings.size(); ++i) {
    const auto& t = timings[i];
    std::fprintf(f,
                 "    {\"threads\": %zu, \"seconds\": %.6f, "
                 "\"speedup_vs_serial\": %.3f, \"identical_to_serial\": %s}%s\n",
                 t.threads, t.seconds, timings[0].seconds / t.seconds,
                 t.matches_serial ? "true" : "false",
                 i + 1 < timings.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"nulling_sweep\": {\"n_trials\": %zu, \"serial_seconds\": "
               "%.6f, \"parallel_threads\": %zu, \"parallel_seconds\": %.6f, "
               "\"speedup\": %.3f, \"identical_to_serial\": %s},\n",
               kSweepTrials, sweep_serial_s, hw, sweep_par_s,
               sweep_serial_s / sweep_par_s, sweep_same ? "true" : "false");
  std::fprintf(f, "  \"deterministic_across_thread_counts\": %s\n",
               all_same ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return all_same ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  return nplus::util::cli_main(argc, argv, kUsage, run_bench);
}
