// Example: the Fig. 4 heterogeneous AP scenario at packet level.
//
// A 1-antenna sensor-class client (c1) uploads to its 2-antenna AP while a
// 3-antenna AP serves two 2-antenna clients. Compares three MACs on the
// same channels: 802.11n (defer), multi-user beamforming (concurrency only
// from the big AP), and n+ (the AP joins the sensor's transmission).
//
//   ./ap_downlink [n_placements]

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
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 60;
  const sim::Scenario scenario = sim::ap_scenario();
  sim::RoundConfig round;
  round.include_overheads = false;

  // One session per (placement, scheme): items 3p, 3p + 1 and 3p + 2 run
  // n+, 802.11n and beamforming for 6 rounds on random testbed placement p.
  const sim::SweepOutcome out =
      sim::CheckpointedRunner(
          sim::testbed_comparison(scenario, n_placements,
                                  {sim::Scheme::kNplus, sim::Scheme::kDot11n,
                                   sim::Scheme::kBeamforming},
                                  6, round),
          3, {})
          .run();
  if (!out.complete()) {
    std::fputs(out.report.summary().c_str(), stderr);
    return 1;
  }

  const char* methods[] = {"n+", "802.11n", "beamforming"};
  const char* links[] = {"c1 -> AP1 (sensor uplink)",
                         "AP2 -> c2 (video)",
                         "AP2 -> c3 (video)"};

  std::printf("%-28s", "");
  for (const char* m : methods) std::printf(" %12s", m);
  std::printf("\n");
  for (std::size_t l = 0; l < 3; ++l) {
    std::printf("%-28s", links[l]);
    for (std::size_t m = 0; m < 3; ++m) {
      util::RunningStats s;
      for (std::size_t p = 0; p < n_placements; ++p) {
        s.add(out.results[3 * p + m].per_link_mbps[l]);
      }
      std::printf(" %7.2f Mb/s", s.mean());
    }
    std::printf("\n");
  }
  std::printf("%-28s", "total");
  for (std::size_t m = 0; m < 3; ++m) {
    util::RunningStats s;
    for (std::size_t p = 0; p < n_placements; ++p) {
      s.add(out.results[3 * p + m].total_mbps);
    }
    std::printf(" %7.2f Mb/s", s.mean());
  }
  std::printf("\n\nWith n+ the 3-antenna AP transmits to both clients even "
              "while the sensor\nholds the medium — beamforming and 802.11n "
              "both defer.\n");
  return 0;
}
