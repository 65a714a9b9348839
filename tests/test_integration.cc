// Integration tests: full signal-level experiment trials (Fig. 9/11
// machinery) and end-to-end throughput comparisons reproducing the paper's
// qualitative claims on small sample counts (the benches run the full-size
// versions).
#include <gtest/gtest.h>

#include "baselines/dot11n.h"
#include "channel/testbed.h"
#include "sim/runner.h"
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

TEST(Throughput, NplusBeatsDot11nInTotal) {
  const channel::Testbed tb;
  const Scenario sc = three_pair_scenario();
  ExperimentConfig cfg;
  cfg.n_placements = 40;
  cfg.rounds_per_placement = 4;
  cfg.seed = 7;
  cfg.round.include_overheads = false;  // the paper's accounting
  const SupervisedExperiment exp = run_experiment(
      tb, sc, cfg,
      {make_nplus_round_fn(sc, cfg.round),
       baselines::make_dot11n_round_fn(sc, cfg.round)});
  ASSERT_TRUE(exp.report.all_ok()) << exp.report.summary();
  const std::vector<MethodResult>& res = exp.methods;
  double nplus = 0.0, dot11n = 0.0;
  for (std::size_t p = 0; p < cfg.n_placements; ++p) {
    nplus += res[0].samples[p].total_mbps;
    dot11n += res[1].samples[p].total_mbps;
  }
  EXPECT_GT(nplus, 1.2 * dot11n);
}

TEST(Throughput, GainsOrderedByAntennaCount) {
  // Paper Fig. 12: gain(3-ant) > gain(2-ant) > gain(1-ant) ~ 1.
  const channel::Testbed tb;
  const Scenario sc = three_pair_scenario();
  ExperimentConfig cfg;
  // Enough placements to pin the 1-antenna gain near its ~0.97x paper
  // value; small samples wander past the upper bound below.
  cfg.n_placements = 150;
  cfg.rounds_per_placement = 4;
  cfg.seed = 13;
  cfg.round.include_overheads = false;
  const SupervisedExperiment exp = run_experiment(
      tb, sc, cfg,
      {make_nplus_round_fn(sc, cfg.round),
       baselines::make_dot11n_round_fn(sc, cfg.round)});
  ASSERT_TRUE(exp.report.all_ok()) << exp.report.summary();
  const std::vector<MethodResult>& res = exp.methods;
  double n[3] = {0, 0, 0}, b[3] = {0, 0, 0};
  for (std::size_t p = 0; p < cfg.n_placements; ++p) {
    for (int l = 0; l < 3; ++l) {
      n[l] += res[0].samples[p].per_link_mbps[static_cast<std::size_t>(l)];
      b[l] += res[1].samples[p].per_link_mbps[static_cast<std::size_t>(l)];
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
  const channel::Testbed tb;
  const Scenario sc = three_pair_scenario();
  ExperimentConfig cfg;
  cfg.n_placements = 50;
  cfg.rounds_per_placement = 4;
  cfg.seed = 21;
  cfg.round.include_overheads = false;
  const SupervisedExperiment exp = run_experiment(
      tb, sc, cfg,
      {make_nplus_round_fn(sc, cfg.round),
       baselines::make_dot11n_round_fn(sc, cfg.round)});
  ASSERT_TRUE(exp.report.all_ok()) << exp.report.summary();
  const std::vector<MethodResult>& res = exp.methods;
  double n = 0.0, b = 0.0;
  for (std::size_t p = 0; p < cfg.n_placements; ++p) {
    n += res[0].samples[p].per_link_mbps[0];
    b += res[1].samples[p].per_link_mbps[0];
  }
  EXPECT_GT(n / b, 0.75);
}

}  // namespace
}  // namespace nplus::sim
