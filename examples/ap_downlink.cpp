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

  sim::ExperimentConfig config;
  config.n_placements =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 60;
  config.rounds_per_placement = 6;
  config.seed = 3;
  config.round.include_overheads = false;

  const channel::Testbed testbed;
  const sim::Scenario scenario = sim::ap_scenario();

  const sim::SupervisedExperiment exp = sim::run_experiment(
      testbed, scenario, config,
      {sim::make_nplus_round_fn(scenario, config.round),
       baselines::make_dot11n_round_fn(scenario, config.round),
       baselines::make_beamforming_round_fn(scenario, config.round)});
  if (!exp.report.all_ok()) {
    std::fputs(exp.report.summary().c_str(), stderr);
    return 1;
  }
  const std::vector<sim::MethodResult>& results = exp.methods;

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
      for (const auto& sample : results[m].samples) {
        s.add(sample.per_link_mbps[l]);
      }
      std::printf(" %7.2f Mb/s", s.mean());
    }
    std::printf("\n");
  }
  std::printf("%-28s", "total");
  for (std::size_t m = 0; m < 3; ++m) {
    util::RunningStats s;
    for (const auto& sample : results[m].samples) s.add(sample.total_mbps);
    std::printf(" %7.2f Mb/s", s.mean());
  }
  std::printf("\n\nWith n+ the 3-antenna AP transmits to both clients even "
              "while the sensor\nholds the medium — beamforming and 802.11n "
              "both defer.\n");
  return 0;
}
