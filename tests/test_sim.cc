// Tests for the packet-level simulation plane: the World (channels,
// reciprocity beliefs, estimation error), receiver math (advertised spaces,
// post-projection SINR), the n+ round builder, baselines and the runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "baselines/beamforming.h"
#include "baselines/dot11n.h"
#include "channel/testbed.h"
#include "linalg/subspace.h"
#include "sim/faults.h"
#include "sim/round.h"
#include "sim/rx_math.h"
#include "sim/scenario_gen.h"
#include "sim/scenarios.h"
#include "sim/world.h"
#include "util/stats.h"
#include "util/units.h"

namespace nplus::sim {
namespace {

using linalg::CMat;
using linalg::cdouble;

World make_world(util::Rng& rng, const WorldConfig& cfg = {}) {
  const channel::Testbed tb;
  const Scenario sc = three_pair_scenario();
  const auto locs = tb.random_placement(sc.nodes.size(), rng);
  return World(tb, sc.nodes, locs, rng, cfg);
}

TEST(World, DimensionsMatchNodes) {
  util::Rng rng(1);
  const World w = make_world(rng);
  EXPECT_EQ(w.n_nodes(), 6u);
  EXPECT_EQ(w.antennas(0), 1u);
  EXPECT_EQ(w.antennas(4), 3u);
  const CMat h = w.channel(4, 5, 0);
  EXPECT_EQ(h.rows(), 3u);  // rx antennas
  EXPECT_EQ(h.cols(), 3u);  // tx antennas
  const CMat h2 = w.channel(0, 3, 10);
  EXPECT_EQ(h2.rows(), 2u);
  EXPECT_EQ(h2.cols(), 1u);
}

TEST(World, ChannelsReciprocal) {
  util::Rng rng(2);
  const World w = make_world(rng);
  for (std::size_t sc = 0; sc < 48; sc += 13) {
    const CMat fwd = w.channel(2, 3, sc);
    const CMat rev = w.channel(3, 2, sc);
    EXPECT_LT(linalg::max_abs_diff(rev, fwd.transpose()), 1e-12);
  }
}

TEST(World, LinkSnrSymmetric) {
  util::Rng rng(3);
  const World w = make_world(rng);
  EXPECT_DOUBLE_EQ(w.link_snr_db(0, 3), w.link_snr_db(3, 0));
}

TEST(World, EstimateAddsBoundedNoise) {
  util::Rng rng(4);
  const World w = make_world(rng);
  const CMat h = w.channel(2, 3, 5);
  const CMat est = w.estimate(h);
  // Error power per entry ~ noise/2.
  double err = 0.0;
  for (std::size_t r = 0; r < h.rows(); ++r) {
    for (std::size_t c = 0; c < h.cols(); ++c) {
      err += std::norm(est(r, c) - h(r, c));
    }
  }
  err /= static_cast<double>(h.rows() * h.cols());
  EXPECT_LT(err, 50.0 * w.noise_power());
}

TEST(World, EstimationCanBeDisabled) {
  util::Rng rng(5);
  WorldConfig cfg;
  cfg.estimation_noise_scale = 0.0;
  const World w = make_world(rng, cfg);
  const CMat h = w.channel(2, 3, 5);
  EXPECT_LT(linalg::max_abs_diff(w.estimate(h), h), 1e-15);
}

TEST(World, ReciprocalBeliefCloseToTruth) {
  util::Rng rng(6);
  const World w = make_world(rng);
  util::RunningStats rel_err_db;
  for (std::size_t sc = 0; sc < 48; ++sc) {
    const CMat truth = w.channel(4, 1, sc);
    const CMat belief = w.reciprocal_channel(4, 1, sc);
    for (std::size_t r = 0; r < truth.rows(); ++r) {
      for (std::size_t c = 0; c < truth.cols(); ++c) {
        if (std::abs(truth(r, c)) < 1e-9) continue;
        rel_err_db.add(util::to_db(
            std::norm((belief(r, c) - truth(r, c)) / truth(r, c))));
      }
    }
  }
  // Bounded by calibration + estimation error; must sit in the -15..-35 dB
  // range that produces the paper's 25-27 dB cancellation.
  EXPECT_LT(rel_err_db.mean(), -12.0);
  EXPECT_GT(rel_err_db.mean(), -45.0);
}

TEST(RxMath, AdvertisedSpaceDimensions) {
  util::Rng rng(7);
  CMat g(3, 1), f(3, 1);
  for (int i = 0; i < 3; ++i) {
    g(static_cast<std::size_t>(i), 0) = rng.cgaussian();
    f(static_cast<std::size_t>(i), 0) = rng.cgaussian();
  }
  const CMat u = advertised_unwanted_space(g, f, 1);
  EXPECT_EQ(u.rows(), 3u);
  EXPECT_EQ(u.cols(), 2u);
  // Contains the interference direction.
  EXPECT_TRUE(linalg::contains_subspace(u, f, 1e-8));
}

TEST(RxMath, AdvertisedSpaceOrthogonalToWantedWhenFree) {
  util::Rng rng(8);
  CMat g(3, 1);
  for (int i = 0; i < 3; ++i) {
    g(static_cast<std::size_t>(i), 0) = rng.cgaussian();
  }
  const CMat u = advertised_unwanted_space(g, CMat(3, 0), 1);
  EXPECT_EQ(u.cols(), 2u);
  // With no interference, the extension avoids the wanted channel entirely.
  EXPECT_LT((u.hermitian() * g).max_abs(), 1e-9);
}

TEST(RxMath, SinrMatchesAnalyticSiso) {
  // 1x1, no interference: SINR == |h|^2 / noise.
  CMat h(1, 1);
  h(0, 0) = cdouble{2.0, 0.0};
  RxObservation obs;
  obs.g_true = h;
  obs.g_est = h;
  obs.interference_true = CMat(1, 0);
  obs.receive_space = CMat::identity(1);
  obs.noise_power = 0.04;
  const auto sinr = zf_stream_sinr(obs);
  ASSERT_EQ(sinr.size(), 1u);
  EXPECT_NEAR(sinr[0], 4.0 / 0.04, 1.0);  // MMSE bias tiny at 20 dB
}

TEST(RxMath, ProjectionRemovesAdvertisedInterference) {
  util::Rng rng(9);
  CMat g(3, 1), f(3, 1);
  for (int i = 0; i < 3; ++i) {
    g(static_cast<std::size_t>(i), 0) = rng.cgaussian();
    f(static_cast<std::size_t>(i), 0) = rng.cgaussian();
  }
  RxObservation obs;
  obs.g_true = g;
  obs.g_est = g;
  obs.interference_true = f;
  obs.receive_space =
      linalg::orthogonal_complement(advertised_unwanted_space(g, f, 1));
  obs.noise_power = 1e-6;
  const auto sinr = zf_stream_sinr(obs);
  // Interference inside the unwanted space: SINR limited by noise only.
  EXPECT_GT(util::to_db(sinr[0]), 30.0);

  // Without the projection the interferer leaks through (a matched filter
  // only attenuates it by the random-vector angle): much worse than with
  // the advertised-space projection.
  obs.receive_space = CMat::identity(3);
  const auto sinr_raw = zf_stream_sinr(obs);
  EXPECT_GT(util::to_db(sinr[0]), util::to_db(sinr_raw[0]) + 10.0);
}

TEST(RxMath, OverloadedReceiverGetsZeroSinr) {
  // 2 wanted streams but only 1 interference-free dimension.
  util::Rng rng(10);
  CMat g(2, 2), u(2, 1);
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t c = 0; c < 2; ++c) g(r, c) = rng.cgaussian();
  }
  u(0, 0) = 1.0;
  RxObservation obs;
  obs.g_true = g;
  obs.g_est = g;
  obs.interference_true = CMat(2, 0);
  obs.receive_space = linalg::orthogonal_complement(u);
  obs.noise_power = 1e-3;
  const auto sinr = zf_stream_sinr(obs);
  EXPECT_DOUBLE_EQ(sinr[0], 0.0);
  EXPECT_DOUBLE_EQ(sinr[1], 0.0);
}

// --- One combiner solve per (link, subcarrier) -------------------------

CMat random_mat(std::size_t rows, std::size_t cols, util::Rng& rng) {
  CMat m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.cgaussian();
  }
  return m;
}

// memcmp of two equally long vectors (an empty vector's data() may be null).
template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool same_bits(const std::vector<StreamRxModel>& a,
               const std::vector<StreamRxModel>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i].gain, &b[i].gain, sizeof(cdouble)) != 0 ||
        !same_bits(a[i].self, b[i].self) ||
        !same_bits(a[i].leak, b[i].leak) ||
        std::memcmp(&a[i].noise_var, &b[i].noise_var, sizeof(double)) != 0 ||
        std::memcmp(&a[i].sinr, &b[i].sinr, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// Evaluates `obs` through a slot filled by `filler` (the first evaluation of
// the same link) and reports whether both summaries match fresh solves of
// `obs` bit for bit. Each summary is checked from a slot the other one
// filled, so neither function only ever reads back its own solve.
bool reused_matches_fresh(const RxObservation& filler,
                          const RxObservation& obs) {
  RxObservation fresh = obs;
  fresh.solve = nullptr;
  const std::vector<double> sinr = zf_stream_sinr(fresh);
  const std::vector<StreamRxModel> models = zf_stream_rx_models(fresh);

  ZfSolve by_sinr;
  RxObservation first = filler;
  first.solve = &by_sinr;
  (void)zf_stream_sinr(first);
  RxObservation second = obs;
  second.solve = &by_sinr;
  const bool models_ok = same_bits(zf_stream_rx_models(second), models);

  ZfSolve by_models;
  first.solve = &by_models;
  (void)zf_stream_rx_models(first);
  second.solve = &by_models;
  const bool sinr_ok = same_bits(zf_stream_sinr(second), sinr);
  // A filled slot stays as it was: reading it again changes nothing.
  return models_ok && sinr_ok && same_bits(zf_stream_sinr(second), sinr);
}

TEST(RxMath, ReusedSolveMatchesFreshSolveBitForBit) {
  util::Rng rng(77);
  std::size_t cases = 0;
  for (std::size_t n_rx = 1; n_rx <= 4; ++n_rx) {
    for (std::size_t n = 1; n <= n_rx; ++n) {
      for (std::size_t j = 0; j <= 3; ++j) {
        RxObservation obs;
        obs.g_true = random_mat(n_rx, n, rng);
        obs.g_est = obs.g_true + cdouble{0.05, 0.0} * random_mat(n_rx, n, rng);
        obs.interference_true = random_mat(n_rx, j, rng);
        obs.noise_power = 1e-3;
        // Interference-free directions as the round builder derives them,
        // from an estimate of at most n_rx - n interferer columns.
        const CMat f_est = random_mat(n_rx, std::min(j, n_rx - n), rng);
        obs.receive_space = linalg::orthogonal_complement(
            advertised_unwanted_space(obs.g_est, f_est, n));
        EXPECT_TRUE(reused_matches_fresh(obs, obs))
            << "N=" << n_rx << " n=" << n << " j=" << j;

        // A later evaluation of the same link sees more interferers: the
        // combiner is the same, the leak terms grow.
        RxObservation later = obs;
        later.interference_true =
            obs.interference_true.hstack(random_mat(n_rx, 2, rng));
        EXPECT_TRUE(reused_matches_fresh(obs, later))
            << "N=" << n_rx << " n=" << n << " j=" << j << " (+2)";

        // The comparison is sharp: a slot solved from a different estimate
        // of the same link does not pass for a fresh solve.
        RxObservation other = obs;
        other.g_est = obs.g_true + cdouble{0.05, 0.0} * random_mat(n_rx, n, rng);
        EXPECT_FALSE(reused_matches_fresh(other, obs))
            << "N=" << n_rx << " n=" << n << " j=" << j << " (wrong g_est)";
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 40u);

  // Overloaded: fewer interference-free directions than streams -> zeros.
  {
    RxObservation obs;
    obs.g_true = random_mat(3, 2, rng);
    obs.g_est = obs.g_true;
    obs.interference_true = random_mat(3, 1, rng);
    obs.receive_space = linalg::orthonormal_basis(random_mat(3, 1, rng));
    obs.noise_power = 1e-3;
    EXPECT_TRUE(reused_matches_fresh(obs, obs));
    ZfSolve slot;
    obs.solve = &slot;
    EXPECT_EQ(zf_stream_sinr(obs), std::vector<double>(2, 0.0));
  }

  // Singular regularized Gram: noise 0 and a rank-deficient estimate make
  // the inverse fail; the slot remembers that and keeps reporting zeros.
  {
    RxObservation obs;
    obs.g_true = random_mat(2, 2, rng);
    obs.g_est = CMat(2, 2);
    obs.g_est(0, 0) = obs.g_est(0, 1) = cdouble{1.0, 0.5};
    obs.g_est(1, 0) = obs.g_est(1, 1) = cdouble{-0.3, 2.0};
    obs.interference_true = random_mat(2, 1, rng);
    obs.receive_space = CMat::identity(2);
    obs.noise_power = 0.0;
    EXPECT_TRUE(reused_matches_fresh(obs, obs));
    ZfSolve slot;
    obs.solve = &slot;
    EXPECT_EQ(zf_stream_sinr(obs), std::vector<double>(2, 0.0));
    EXPECT_TRUE(slot.solved);
    EXPECT_TRUE(slot.singular);
  }

  // Non-finite entries propagate identically through a reused solve.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const cdouble bad : {cdouble{nan, 0.0}, cdouble{inf, 0.0},
                            cdouble{0.0, -inf}}) {
    RxObservation est_bad;
    est_bad.g_true = random_mat(3, 2, rng);
    est_bad.g_est = est_bad.g_true;
    est_bad.g_est(1, 0) = bad;
    est_bad.interference_true = random_mat(3, 1, rng);
    est_bad.receive_space = CMat::identity(3);
    est_bad.noise_power = 1e-3;
    EXPECT_TRUE(reused_matches_fresh(est_bad, est_bad));

    RxObservation truth_bad = est_bad;
    truth_bad.g_est = truth_bad.g_true;
    truth_bad.g_true(2, 1) = bad;
    truth_bad.interference_true(0, 0) = bad;
    EXPECT_TRUE(reused_matches_fresh(truth_bad, truth_bad));
  }
}

TEST(Scenarios, ThreePairShape) {
  const Scenario sc = three_pair_scenario();
  EXPECT_EQ(sc.nodes.size(), 6u);
  EXPECT_EQ(sc.links.size(), 3u);
  EXPECT_EQ(sc.transmitters(), (std::vector<std::size_t>{0, 2, 4}));
  EXPECT_EQ(sc.links_of(4), (std::vector<std::size_t>{2}));
}

TEST(Scenarios, ApScenarioShape) {
  const Scenario sc = ap_scenario();
  EXPECT_EQ(sc.nodes.size(), 5u);
  EXPECT_EQ(sc.transmitters(), (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(sc.links_of(2), (std::vector<std::size_t>{1, 2}));
}

class RoundSuite : public ::testing::Test {
 protected:
  channel::Testbed tb_;
  Scenario sc_ = three_pair_scenario();
  RoundConfig cfg_;

  World strong_world(util::Rng& rng) {
    // Re-draw until all pairs are strong so rounds are non-degenerate.
    for (int i = 0; i < 100; ++i) {
      const auto locs = tb_.random_placement(sc_.nodes.size(), rng);
      World w(tb_, sc_.nodes, locs, rng, {});
      if (w.link_snr_db(0, 1) > 15 && w.link_snr_db(2, 3) > 15 &&
          w.link_snr_db(4, 5) > 15) {
        return w;
      }
    }
    ADD_FAILURE() << "no strong placement found";
    const auto locs = tb_.random_placement(sc_.nodes.size(), rng);
    return World(tb_, sc_.nodes, locs, rng, {});
  }
};

TEST_F(RoundSuite, DofNeverExceedsMaxAntennas) {
  util::Rng rng(11);
  const World w = strong_world(rng);
  for (int i = 0; i < 30; ++i) {
    const RoundResult res = run_nplus_round(w, sc_, rng, cfg_);
    EXPECT_LE(res.total_streams, 3u);
    EXPECT_GE(res.total_streams, 1u);
  }
}

TEST_F(RoundSuite, WinnerOrderConsistentWithStreams) {
  util::Rng rng(12);
  const World w = strong_world(rng);
  for (int i = 0; i < 30; ++i) {
    const RoundResult res = run_nplus_round(w, sc_, rng, cfg_);
    ASSERT_FALSE(res.winner_order.empty());
    // Total streams = sum of per-link streams.
    std::size_t total = 0;
    for (const auto& l : res.links) total += l.streams;
    EXPECT_EQ(total, res.total_streams);
  }
}

TEST_F(RoundSuite, SingleAntennaNeverJoins) {
  util::Rng rng(13);
  const World w = strong_world(rng);
  for (int i = 0; i < 40; ++i) {
    const RoundResult res = run_nplus_round(w, sc_, rng, cfg_);
    // If tx1 (node 0) transmitted, it must have been the first winner.
    if (res.links[0].streams > 0) {
      EXPECT_EQ(res.winner_order[0], 0u);
      EXPECT_EQ(res.links[0].streams, 1u);
    }
  }
}

TEST_F(RoundSuite, DurationPositiveAndBounded) {
  util::Rng rng(14);
  const World w = strong_world(rng);
  for (int i = 0; i < 20; ++i) {
    const RoundResult res = run_nplus_round(w, sc_, rng, cfg_);
    EXPECT_GT(res.duration_s, 100e-6);
    EXPECT_LT(res.duration_s, 50e-3);
  }
}

TEST_F(RoundSuite, PaperAccountingShorterThanRealistic) {
  util::Rng rng(15);
  const World w = strong_world(rng);
  RoundConfig paper = cfg_;
  paper.include_overheads = false;
  util::Rng r1(99), r2(99);
  const RoundResult with = run_nplus_round(w, sc_, r1, cfg_);
  const RoundResult without = run_nplus_round(w, sc_, r2, paper);
  EXPECT_LT(without.duration_s, with.duration_s);
}

TEST_F(RoundSuite, ResidualDegradesLaterEsnr) {
  // Final ESNR of the first winner can only be <= its selection ESNR
  // (joiners add residual interference, never remove noise).
  util::Rng rng(16);
  const World w = strong_world(rng);
  int checked = 0;
  for (int i = 0; i < 60; ++i) {
    const RoundResult res = run_nplus_round(w, sc_, rng, cfg_);
    if (res.winner_order.size() < 2) continue;
    const std::size_t first_link =
        res.winner_order[0] == 0 ? 0 : (res.winner_order[0] == 2 ? 1 : 2);
    const auto& l = res.links[first_link];
    if (l.mcs_index < 0) continue;
    EXPECT_LE(l.final_esnr_db, l.esnr_db + 0.75) << i;
    ++checked;
  }
  EXPECT_GT(checked, 5);
}

TEST(IsolatedTx, SisoDelivers) {
  util::Rng rng(17);
  const channel::Testbed tb;
  const Scenario sc = three_pair_scenario();
  for (int i = 0; i < 50; ++i) {
    const auto locs = tb.random_placement(sc.nodes.size(), rng);
    const World w(tb, sc.nodes, locs, rng, {});
    if (w.link_snr_db(0, 1) < 15) continue;
    IsolatedTxSpec spec;
    spec.tx_node = 0;
    spec.dests.push_back({0, 1, 1});
    const auto res = evaluate_isolated_tx(w, spec, rng, {});
    EXPECT_GT(res.outcomes[0].delivered_bits, 11000.0);
    EXPECT_GT(res.airtime_s, 0.0);
    return;
  }
  GTEST_SKIP() << "no strong placement";
}

TEST(IsolatedTx, MuBeamformingSeparatesClients) {
  util::Rng rng(18);
  const channel::Testbed tb;
  const Scenario sc = ap_scenario();
  for (int i = 0; i < 80; ++i) {
    const auto locs = tb.random_placement(sc.nodes.size(), rng);
    const World w(tb, sc.nodes, locs, rng, {});
    if (w.link_snr_db(2, 3) < 20 || w.link_snr_db(2, 4) < 20) continue;
    IsolatedTxSpec spec;
    spec.tx_node = 2;
    spec.dests.push_back({1, 3, 2});
    spec.dests.push_back({2, 4, 1});
    spec.mu_beamforming = true;
    const auto res = evaluate_isolated_tx(w, spec, rng, {});
    // Both clients should see a usable rate.
    EXPECT_GE(res.outcomes[0].mcs_index, 0);
    EXPECT_GE(res.outcomes[1].mcs_index, 0);
    return;
  }
  GTEST_SKIP() << "no strong placement";
}

TEST(Baselines, Dot11nSingleLinkPerRound) {
  util::Rng rng(19);
  const channel::Testbed tb;
  const Scenario sc = three_pair_scenario();
  const auto locs = tb.random_placement(sc.nodes.size(), rng);
  const World w(tb, sc.nodes, locs, rng, {});
  for (int i = 0; i < 20; ++i) {
    const RoundResult round =
        baselines::run_dot11n_round(w, sc, rng, RoundConfig{});
    int active = 0;
    for (const LinkOutcome& link : round.links) {
      if (link.delivered_bits > 0) ++active;
    }
    EXPECT_LE(active, 1);
    EXPECT_EQ(round.winner_order.size(), 1u);
    EXPECT_GT(round.duration_s, 0.0);
  }
}

TEST(Baselines, BeamformingServesBothClientsWhenApWins) {
  util::Rng rng(20);
  const channel::Testbed tb;
  const Scenario sc = ap_scenario();
  int both = 0;
  for (int i = 0; i < 200; ++i) {
    const auto locs = tb.random_placement(sc.nodes.size(), rng);
    const World w(tb, sc.nodes, locs, rng, {});
    const RoundResult round =
        baselines::run_beamforming_round(w, sc, rng, RoundConfig{});
    if (round.links[1].delivered_bits > 0 &&
        round.links[2].delivered_bits > 0) {
      ++both;
      EXPECT_EQ(round.winner_order, std::vector<std::size_t>{2});
      EXPECT_GE(round.total_streams, 2u);
    }
  }
  EXPECT_GT(both, 12);  // AP wins ~half the rounds, channels often good
}

// --- Claim 3.2 at the round level ----------------------------------------

namespace {

// Two pairs in a tight square (strong links, strong mutual interference);
// `joiner_antennas` sets the second pair's antenna count on both ends.
struct TwoPairSetup {
  channel::Testbed tb;
  Scenario sc;
  std::vector<std::size_t> locs;
};

TwoPairSetup two_pair_setup(std::size_t joiner_antennas) {
  TwoPairSetup s{channel::Testbed({{0.0, 0.0},
                                   {3.0, 0.0},
                                   {0.0, 3.0},
                                   {3.0, 3.0}}),
                 {}, {0, 1, 2, 3}};
  s.sc.nodes = {{2}, {2}, {joiner_antennas}, {joiner_antennas}};
  s.sc.links = {{0, 1}, {2, 3}};
  return s;
}

}  // namespace

TEST(Round, EqualAntennaJoinerBarredClaim32) {
  // Claim 3.2: a joiner can add m = M - K streams. When every node has two
  // antennas and the first winner fills both degrees of freedom, the other
  // pair is barred in that round — no matter how strong its link is.
  const TwoPairSetup s = two_pair_setup(2);
  util::Rng rng(51);
  const World w(s.tb, s.sc.nodes, s.locs, rng);
  RoundConfig cfg;
  std::size_t full_dof_rounds = 0;
  for (int r = 0; r < 40; ++r) {
    const RoundResult res = run_nplus_round(w, s.sc, rng, cfg);
    ASSERT_GE(res.winner_order.size(), 1u);
    if (res.winner_order.size() == 1 && res.total_streams == 2) {
      ++full_dof_rounds;
    }
    // The bar itself: once 2 streams are on the air, a 2-antenna joiner
    // can never be the second winner.
    if (res.winner_order.size() == 2) {
      EXPECT_LT(res.total_streams, 3u);
      // And the first winner must have left a degree of freedom unused.
      EXPECT_EQ(res.links[res.winner_order[0] == 0 ? 0 : 1].streams, 1u);
    }
  }
  // The strong 2x2 links fill both DoF in (nearly) every round.
  EXPECT_GT(full_dof_rounds, 20u);
}

TEST(Round, ExtraAntennaLiftsTheBar) {
  // Same geometry, but the second pair has three antennas: M - K = 1 once
  // the first winner holds two streams, so joins reappear.
  const TwoPairSetup s = two_pair_setup(3);
  util::Rng rng(52);
  const World w(s.tb, s.sc.nodes, s.locs, rng);
  RoundConfig cfg;
  std::size_t joined = 0;
  for (int r = 0; r < 40; ++r) {
    const RoundResult res = run_nplus_round(w, s.sc, rng, cfg);
    if (res.winner_order.size() == 2) ++joined;
  }
  EXPECT_GT(joined, 10u);
}

// --- Claim 3.2 on every round of generated worlds -----------------------

// Checks one round against the DoF bookkeeping of Claim 3.2, reconstructed
// from the winner order and the per-link stream counts alone.
void expect_claim32(const World& w, const Scenario& sc, const RoundResult& res,
                    const std::string& where) {
  std::size_t on_air = 0;
  std::size_t summed = 0;
  for (std::size_t tx : res.winner_order) {
    EXPECT_GT(w.antennas(tx), on_air)
        << where << ": tx " << tx << " joined with too few antennas";
    std::size_t added = 0;
    for (std::size_t li : sc.links_of(tx)) {
      // A receiver with no dimension left simply gets no streams.
      const std::size_t rx = sc.links[li].rx_node;
      if (res.links[li].streams > 0) {
        EXPECT_LE(res.links[li].streams + on_air, w.antennas(rx))
            << where << ": link " << li << " overloads its receiver";
      }
      added += res.links[li].streams;
    }
    on_air += added;
    summed += added;
  }
  EXPECT_EQ(res.total_streams, summed) << where;
  for (std::size_t li = 0; li < sc.links.size(); ++li) {
    const std::size_t tx = sc.links[li].tx_node;
    if (std::find(res.winner_order.begin(), res.winner_order.end(), tx) ==
        res.winner_order.end()) {
      EXPECT_EQ(res.links[li].streams, 0u)
          << where << ": link " << li << " streams without winning";
    }
  }
}

TEST(Round, ConformsToClaim32OnGeneratedWorlds) {
  AntennaMix mix;
  mix.weights = {0.35, 0.30, 0.20, 0.15};
  WorldConfig wc;
  wc.lazy_channels = true;
  FaultConfig faults;
  faults.header_loss_rate = 0.3;
  faults.header_fallback_defer = false;  // blind joiners still obey the bar
  faults.degenerate_channel_rate = 0.2;
  faults.node_outage_hz = 5.0;
  std::size_t rounds = 0;
  std::size_t joins = 0;
  for (const LinkPattern pattern :
       {LinkPattern::kPeerPairs, LinkPattern::kApDownlink}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      for (const bool with_faults : {false, true}) {
        GenConfig gc;
        gc.n_links = 12;
        gc.pattern = pattern;
        gc.links_per_ap = 4;
        gc.tx_mix = mix;
        gc.rx_mix = mix;
        util::Rng rng(seed);
        const GeneratedTopology topo = generate_topology(gc, rng);
        const World w = make_world(topo, rng, wc);
        const Scenario& sc = topo.scenario;
        std::optional<FaultInjector> inj;
        RoundConfig cfg;
        if (with_faults) {
          inj.emplace(faults, sc, rng.fork(0xFA17));
          cfg.faults = &*inj;
        }
        std::vector<std::uint8_t> mask(sc.links.size(), 1);
        for (int r = 0; r < 6; ++r) {
          if (inj) {
            inj->begin_round();
            inj->advance_outages(0.02, 0.02 * r);
            std::fill(mask.begin(), mask.end(), 1);
            inj->apply_outage_mask(mask, 0.02 * r);
          }
          const RoundResult res =
              run_nplus_round(w, sc, rng, cfg, inj ? &mask : nullptr);
          expect_claim32(w, sc, res,
                         std::string(pattern == LinkPattern::kPeerPairs
                                         ? "peer"
                                         : "ap") +
                             " seed " + std::to_string(seed) +
                             (with_faults ? " faults" : "") + " round " +
                             std::to_string(r));
          ++rounds;
          joins += res.winner_order.size() > 1 ? 1 : 0;
        }
      }
    }
  }
  EXPECT_EQ(rounds, 96u);
  EXPECT_GT(joins, 0u);  // the bar was exercised, not only first winners
}

}  // namespace
}  // namespace nplus::sim
