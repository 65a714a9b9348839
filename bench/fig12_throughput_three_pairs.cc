// Reproduces Fig. 12: throughput CDFs of n+ vs 802.11n for the Fig. 3
// scenario (1-, 2- and 3-antenna pairs), over random testbed placements
// with randomly drawn contention winners, 1500-byte packets and per-packet
// ESNR rate selection — the paper's §6.3 methodology (throughput measured
// over the concurrent data phase; the handshake overhead is quoted
// separately in the sec35 bench).
//
// Paper's headline numbers: total throughput ~2x; per-pair average gains
// ~0.97x (1-antenna), ~1.5x (2-antenna), ~3.5x (3-antenna).

#include <cstdio>
#include <vector>

#include "sim/checkpoint_runner.h"
#include "sim/scenarios.h"
#include "util/cli.h"
#include "util/stats.h"

int main(int argc, char** argv) {
  using namespace nplus;
  util::init_threads_from_cli(argc, argv);

  const sim::Scenario scenario = sim::three_pair_scenario();
  constexpr std::size_t kPlacements = 200;
  sim::RoundConfig round;
  round.include_overheads = false;  // paper accounting (see header)

  // Items 2p and 2p + 1: n+ and 802.11n on placement p.
  const sim::SweepOutcome out =
      sim::CheckpointedRunner(
          sim::testbed_comparison(scenario, kPlacements,
                                  {sim::Scheme::kNplus, sim::Scheme::kDot11n},
                                  6, round),
          42, {})
          .run();
  if (!out.complete()) {
    std::fputs(out.report.summary().c_str(), stderr);
    return 1;
  }

  auto collect = [&](std::size_t method, int link) {
    std::vector<double> v;
    for (std::size_t p = 0; p < kPlacements; ++p) {
      const sim::SessionResult& s = out.results[2 * p + method];
      v.push_back(link < 0 ? s.total_mbps
                           : s.per_link_mbps[static_cast<std::size_t>(link)]);
    }
    return v;
  };

  auto print_cdf_rows = [&](const char* title, int link) {
    const auto nplus_v = collect(0, link);
    const auto base_v = collect(1, link);
    std::printf("--- %s: throughput CDF [Mb/s] ---\n", title);
    // percentile({}) is NaN by contract; an empty sweep must say so rather
    // than render a column of bogus zeros.
    if (nplus_v.empty() || base_v.empty()) {
      std::printf("(no samples)\n\n");
      return;
    }
    std::printf("%-10s %8s %8s\n", "percentile", "n+", "802.11n");
    for (double p : {10.0, 25.0, 50.0, 75.0, 90.0}) {
      std::printf("%9.0f%% %8.2f %8.2f\n", p,
                  util::percentile(nplus_v, p), util::percentile(base_v, p));
    }
    double mean_n = 0, mean_b = 0;
    for (double v : nplus_v) mean_n += v / static_cast<double>(nplus_v.size());
    for (double v : base_v) mean_b += v / static_cast<double>(base_v.size());
    std::printf("%-10s %8.2f %8.2f   gain %.2fx\n\n", "mean", mean_n, mean_b,
                mean_b > 0 ? mean_n / mean_b : 0.0);
  };

  std::printf("=== Fig 12: n+ vs 802.11n, three heterogeneous pairs "
              "(%zu placements) ===\n\n",
              kPlacements);
  print_cdf_rows("Fig 12(a) total network", -1);
  print_cdf_rows("Fig 12(b) tx1-rx1 (1 antenna)", 0);
  print_cdf_rows("Fig 12(c) tx2-rx2 (2 antennas)", 1);
  print_cdf_rows("Fig 12(d) tx3-rx3 (3 antennas)", 2);

  std::printf("(paper: total ~2x; per-pair gains ~0.97x / 1.5x / 3.5x; "
              "single-antenna loss <3%%)\n");
  return 0;
}
