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
  config.n_placements = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 40;
  config.rounds_per_placement = 6;
  config.seed = 42;

  const channel::Testbed testbed;
  const sim::Scenario scenario = sim::three_pair_scenario();

  const std::vector<sim::RoundFn> methods = {
      sim::make_nplus_round_fn(scenario, config.round),
      baselines::make_dot11n_round_fn(scenario, config.round),
  };
  const sim::SupervisedExperiment exp =
      sim::run_experiment(testbed, scenario, config, methods);
  if (!exp.report.all_ok()) {
    std::fputs(exp.report.summary().c_str(), stderr);
    return 1;
  }
  const std::vector<sim::MethodResult>& results = exp.methods;

  const char* names[] = {"n+", "802.11n"};
  const char* pairs[] = {"1-antenna pair", "2-antenna pair",
                         "3-antenna pair"};

  double totals[2] = {0.0, 0.0};
  std::printf("%-16s %12s %12s\n", "", names[0], names[1]);
  for (std::size_t l = 0; l < scenario.links.size(); ++l) {
    double mean[2] = {0.0, 0.0};
    for (int m = 0; m < 2; ++m) {
      util::RunningStats s;
      for (const auto& sample : results[m].samples) {
        s.add(sample.per_link_mbps[l]);
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
