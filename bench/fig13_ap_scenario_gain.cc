// Reproduces Fig. 13: per-placement throughput GAIN CDFs of n+ over (a)
// 802.11n and (b) multi-user beamforming [7], for the Fig. 4 scenario:
// a 1-antenna client c1 transmitting to 2-antenna AP1 while 3-antenna AP2
// has traffic for two 2-antenna clients.
//
// Paper: total gain 2.4x over 802.11n and 1.8x over beamforming; c1's loss
// ~3.2%; AP2's clients gain 3.5-3.6x / 2.5-2.6x.

#include <cstdio>
#include <vector>

#include "sim/checkpoint_runner.h"
#include "sim/scenarios.h"
#include "util/cli.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace nplus;
  util::init_threads_from_cli(argc, argv);

  const sim::Scenario scenario = sim::ap_scenario();
  constexpr std::size_t kPlacements = 200;
  sim::RoundConfig round;
  round.include_overheads = false;  // paper accounting

  // Items 3p, 3p + 1 and 3p + 2: n+, 802.11n and beamforming on
  // placement p.
  const sim::SweepOutcome out =
      sim::CheckpointedRunner(
          sim::testbed_comparison(scenario, kPlacements,
                                  {sim::Scheme::kNplus, sim::Scheme::kDot11n,
                                   sim::Scheme::kBeamforming},
                                  6, round),
          19, {})
          .run();
  if (!out.complete()) {
    std::fputs(out.report.summary().c_str(), stderr);
    return 1;
  }

  const char* links[] = {"c1 -> AP1", "AP2 -> c2", "AP2 -> c3"};

  auto gains = [&](std::size_t baseline, int link) {
    std::vector<double> v;
    for (std::size_t p = 0; p < kPlacements; ++p) {
      const sim::SessionResult& a = out.results[3 * p];
      const sim::SessionResult& b = out.results[3 * p + baseline];
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

  auto report = [&](const char* title, std::size_t baseline) {
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
              kPlacements);
  report("Fig 13(a): gain of n+ over 802.11n", 1);
  report("Fig 13(b): gain of n+ over multi-user beamforming", 2);
  std::printf("(paper: totals 2.4x / 1.8x; c1 ~0.97x; clients 3.5-3.6x / "
              "2.5-2.6x)\n");
  return 0;
}
