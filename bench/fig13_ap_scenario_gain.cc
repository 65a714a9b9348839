// Reproduces Fig. 13: per-placement throughput GAIN CDFs of n+ over (a)
// 802.11n and (b) multi-user beamforming [7], for the Fig. 4 scenario:
// a 1-antenna client c1 transmitting to 2-antenna AP1 while 3-antenna AP2
// has traffic for two 2-antenna clients.
//
// Paper: total gain 2.4x over 802.11n and 1.8x over beamforming; c1's loss
// ~3.2%; AP2's clients gain 3.5-3.6x / 2.5-2.6x.

#include <cstdio>
#include <vector>

#include "baselines/beamforming.h"
#include "baselines/dot11n.h"
#include "channel/testbed.h"
#include "sim/runner.h"
#include "sim/scenarios.h"
#include "util/cli.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace nplus;
  util::init_threads_from_cli(argc, argv);

  const channel::Testbed testbed;
  const sim::Scenario scenario = sim::ap_scenario();

  sim::ExperimentConfig cfg;
  cfg.n_placements = 200;
  cfg.rounds_per_placement = 6;
  cfg.seed = 19;
  cfg.round.include_overheads = false;  // paper accounting

  const sim::SupervisedExperiment exp = sim::run_experiment(
      testbed, scenario, cfg,
      {sim::make_nplus_round_fn(scenario, cfg.round),
       baselines::make_dot11n_round_fn(scenario, cfg.round),
       baselines::make_beamforming_round_fn(scenario, cfg.round)});
  if (!exp.report.all_ok()) {
    std::fputs(exp.report.summary().c_str(), stderr);
    return 1;
  }
  const std::vector<sim::MethodResult>& results = exp.methods;

  const char* links[] = {"c1 -> AP1", "AP2 -> c2", "AP2 -> c3"};

  auto gains = [&](int baseline, int link) {
    std::vector<double> v;
    for (std::size_t p = 0; p < cfg.n_placements; ++p) {
      const auto& a = results[0].samples[p];
      const auto& b = results[static_cast<std::size_t>(baseline)].samples[p];
      const double num =
          link < 0 ? a.total_mbps
                   : a.per_link_mbps[static_cast<std::size_t>(link)];
      const double den =
          link < 0 ? b.total_mbps
                   : b.per_link_mbps[static_cast<std::size_t>(link)];
      if (den > 1e-3) v.push_back(num / den);
    }
    return v;
  };

  auto report = [&](const char* title, int baseline) {
    std::printf("--- %s ---\n", title);
    std::printf("%-12s %6s %6s %6s %6s %6s  %6s\n", "series", "p10", "p25",
                "p50", "p75", "p90", "mean");
    for (int link = -1; link < 3; ++link) {
      auto v = gains(baseline, link);
      if (v.empty()) continue;
      double mean = 0;
      for (double g : v) mean += g / static_cast<double>(v.size());
      std::printf("%-12s", link < 0 ? "total" : links[link]);
      for (double p : {10.0, 25.0, 50.0, 75.0, 90.0}) {
        std::printf(" %6.2f", util::percentile(v, p));
      }
      std::printf("  %6.2f\n", mean);
    }
    std::printf("\n");
  };

  std::printf("=== Fig 13: n+ gain CDFs, AP scenario (%zu placements) "
              "===\n\n",
              cfg.n_placements);
  report("Fig 13(a): gain of n+ over 802.11n", 1);
  report("Fig 13(b): gain of n+ over multi-user beamforming", 2);
  std::printf("(paper: totals 2.4x / 1.8x; c1 ~0.97x; clients 3.5-3.6x / "
              "2.5-2.6x)\n");
  return 0;
}
