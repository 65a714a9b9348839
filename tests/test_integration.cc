// Integration tests: full signal-level experiment trials (Fig. 9/11
// machinery) and end-to-end throughput comparisons reproducing the paper's
// qualitative claims on small sample counts (the benches run the full-size
// versions).
#include <gtest/gtest.h>

#include "channel/testbed.h"
#include "sim/checkpoint_runner.h"
#include "sim/scenarios.h"
#include "sim/signal_experiments.h"
#include "util/stats.h"

namespace nplus::sim {
namespace {

TEST(SignalNulling, ResidualSmallAndCancellationDeep) {
  channel::Testbed tb;
  util::Rng rng(100);
  util::RunningStats loss, canc;
  for (int i = 0; i < 10; ++i) {
    const NullingTrial t = run_nulling_trial(tb, rng);
    // Sanity on the measurement phases.
    EXPECT_GT(t.unwanted_snr_db, -10.0);
    EXPECT_LT(t.unwanted_snr_db, 50.0);
    loss.add(t.snr_reduction_db());
    if (t.unwanted_snr_db > 12.0) canc.add(t.cancellation_db);
  }
  // Paper §6.2: average ~0.8 dB below the threshold, cancellation 25-27 dB.
  EXPECT_LT(loss.mean(), 2.5);
  EXPECT_GT(canc.mean(), 18.0);
}

TEST(SignalAlignment, ResidualLargerThanNulling) {
  channel::Testbed tb;
  util::Rng rng(200);
  util::RunningStats align_loss, null_loss;
  for (int i = 0; i < 8; ++i) {
    null_loss.add(run_nulling_trial(tb, rng).snr_reduction_db());
    align_loss.add(run_alignment_trial(tb, rng).snr_reduction_db());
  }
  // The paper's ordering: alignment (1.3 dB) > nulling (0.8 dB); allow wide
  // tolerance at this sample size but keep both bounded.
  EXPECT_LT(null_loss.mean(), 2.0);
  EXPECT_LT(align_loss.mean(), 4.0);
  EXPECT_GT(align_loss.mean(), null_loss.mean() - 0.75);
}

TEST(SignalCarrierSense, ProjectionSeparatesDetection) {
  util::Rng rng(300);
  CarrierSenseConfigExp cfg;
  cfg.tx1_snr_db = 25.0;
  cfg.tx2_snr_db = 15.0;  // the Fig. 9(a) power-profile operating point
  util::RunningStats raw_jump, proj_jump;
  for (int i = 0; i < 6; ++i) {
    const CarrierSenseTrial t = run_carrier_sense_trial(rng, cfg);
    raw_jump.add(t.jump_raw_db);
    proj_jump.add(t.jump_projected_db);
  }
  // Without projection tx2's arrival is nearly invisible; with projection
  // the jump is large (paper: 0.4 dB vs 8.5 dB).
  EXPECT_LT(raw_jump.mean(), 1.5);
  EXPECT_GT(proj_jump.mean(), 4.0);
}

TEST(SignalCarrierSense, CorrelationDistinguishableOnlyWithProjection) {
  util::Rng rng(400);
  CarrierSenseConfigExp cfg;  // default: tx2 at 2 dB (low SNR, §6.1)
  util::RunningStats raw_gap, proj_gap;
  for (int i = 0; i < 8; ++i) {
    const CarrierSenseTrial t = run_carrier_sense_trial(rng, cfg);
    raw_gap.add(t.corr_raw_active - t.corr_raw_silent);
    proj_gap.add(t.corr_projected_active - t.corr_projected_silent);
  }
  EXPECT_GT(proj_gap.mean(), raw_gap.mean() + 0.1);
  EXPECT_GT(proj_gap.mean(), 0.2);
}

// A paired n+ / 802.11n comparison of the three-pair scenario on
// `n_placements` testbed placements, 4 static rounds each at the paper's
// accounting: results[2p] is n+ and results[2p + 1] 802.11n on placement p.
std::vector<SessionResult> three_pair_comparison(std::size_t n_placements,
                                                 std::uint64_t seed) {
  RoundConfig round;
  round.include_overheads = false;  // the paper's accounting
  SweepOutcome out =
      CheckpointedRunner(
          testbed_comparison(three_pair_scenario(), n_placements,
                             {Scheme::kNplus, Scheme::kDot11n}, 4, round),
          seed, {})
          .run();
  EXPECT_TRUE(out.complete()) << out.report.summary();
  return std::move(out.results);
}

TEST(Throughput, NplusBeatsDot11nInTotal) {
  const std::size_t n_placements = 40;
  const std::vector<SessionResult> res = three_pair_comparison(n_placements, 7);
  double nplus = 0.0, dot11n = 0.0;
  for (std::size_t p = 0; p < n_placements; ++p) {
    nplus += res[2 * p].total_mbps;
    dot11n += res[2 * p + 1].total_mbps;
  }
  EXPECT_GT(nplus, 1.2 * dot11n);
}

TEST(Throughput, GainsOrderedByAntennaCount) {
  // Paper Fig. 12: gain(3-ant) > gain(2-ant) > gain(1-ant) ~ 1.
  // Enough placements to pin the 1-antenna gain near its ~0.97x paper
  // value; small samples wander past the upper bound below.
  const std::size_t n_placements = 150;
  const std::vector<SessionResult> res =
      three_pair_comparison(n_placements, 13);
  double n[3] = {0, 0, 0}, b[3] = {0, 0, 0};
  for (std::size_t p = 0; p < n_placements; ++p) {
    for (std::size_t l = 0; l < 3; ++l) {
      n[l] += res[2 * p].per_link_mbps[l];
      b[l] += res[2 * p + 1].per_link_mbps[l];
    }
  }
  const double g1 = n[0] / b[0], g2 = n[1] / b[1], g3 = n[2] / b[2];
  EXPECT_GT(g3, g2);
  EXPECT_GT(g2, g1);
  EXPECT_GT(g3, 1.8);          // the 3-antenna pair gains a lot
  EXPECT_GT(g1, 0.75);         // the 1-antenna pair loses little
  EXPECT_LT(g1, 1.05);
}

TEST(Throughput, SingleAntennaTaxSmall) {
  // The 1-antenna pair's per-packet delivery degrades by only a few percent
  // (residual interference), even though joiners share its airtime.
  const std::size_t n_placements = 50;
  const std::vector<SessionResult> res =
      three_pair_comparison(n_placements, 21);
  double n = 0.0, b = 0.0;
  for (std::size_t p = 0; p < n_placements; ++p) {
    n += res[2 * p].per_link_mbps[0];
    b += res[2 * p + 1].per_link_mbps[0];
  }
  EXPECT_GT(n / b, 0.75);
}

}  // namespace
}  // namespace nplus::sim
