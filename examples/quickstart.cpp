// Quickstart: the paper's headline experiment in ~50 lines.
//
// Builds the Fig. 3 scenario (a 1-antenna, a 2-antenna and a 3-antenna pair
// placed at random testbed locations), runs 802.11n and n+ over the same
// channels, and prints average per-pair and total throughput — the
// packet-level version of Fig. 12.
//
//   ./quickstart [n_placements]

#include <cstdio>
#include <cstdlib>

#include "sim/checkpoint_runner.h"
#include "sim/scenarios.h"
#include "util/cli.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace nplus;
  util::init_threads_from_cli(argc, argv);

  const std::size_t n_placements =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 40;
  const sim::Scenario scenario = sim::three_pair_scenario();

  // One session per (placement, scheme): items 2p and 2p + 1 run n+ and
  // 802.11n for 6 rounds on the same random testbed placement p.
  const sim::SweepOutcome out =
      sim::CheckpointedRunner(
          sim::testbed_comparison(scenario, n_placements,
                                  {sim::Scheme::kNplus, sim::Scheme::kDot11n},
                                  6, sim::RoundConfig{}),
          42, {})
          .run();
  if (!out.complete()) {
    std::fputs(out.report.summary().c_str(), stderr);
    return 1;
  }

  const char* names[] = {"n+", "802.11n"};
  const char* pairs[] = {"1-antenna pair", "2-antenna pair",
                         "3-antenna pair"};

  double totals[2] = {0.0, 0.0};
  std::printf("%-16s %12s %12s\n", "", names[0], names[1]);
  for (std::size_t l = 0; l < scenario.links.size(); ++l) {
    double mean[2] = {0.0, 0.0};
    for (std::size_t m = 0; m < 2; ++m) {
      util::RunningStats s;
      for (std::size_t p = 0; p < n_placements; ++p) {
        s.add(out.results[2 * p + m].per_link_mbps[l]);
      }
      mean[m] = s.mean();
      totals[m] += s.mean();
    }
    std::printf("%-16s %9.2f Mb/s %9.2f Mb/s  (gain %.2fx)\n", pairs[l],
                mean[0], mean[1], mean[1] > 0 ? mean[0] / mean[1] : 0.0);
  }
  std::printf("%-16s %9.2f Mb/s %9.2f Mb/s  (gain %.2fx)\n", "total",
              totals[0], totals[1],
              totals[1] > 0 ? totals[0] / totals[1] : 0.0);
  return 0;
}
