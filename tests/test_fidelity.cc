// Dual-fidelity validation: the calibrated eSNR -> PER link abstraction
// against the full-codec-chain reference, the lazy large-world mode, and
// the headline cross-validation — every pinned preset run at BOTH fidelity
// levels under identical forked RNG streams, with the protocol trace
// required to match exactly and the delivered throughput statistically.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "phy/esnr.h"
#include "phy/frame.h"
#include "phy/link_abstraction.h"
#include "phy/mcs.h"
#include "sim/scenario_gen.h"
#include "sim/session.h"
#include "util/rng.h"
#include "util/units.h"

namespace nplus {
namespace {

using phy::LinkAbstraction;
using phy::Mcs;
using phy::PerCurve;

// --- LinkAbstraction table ----------------------------------------------

TEST(LinkAbstraction, CalibratedTableCoversEveryMcs) {
  const LinkAbstraction& table = LinkAbstraction::calibrated();
  for (const Mcs& m : phy::mcs_table()) {
    EXPECT_TRUE(table.has_curve(m.index))
        << "missing calibration for MCS " << m.index
        << " — regenerate src/phy/per_table_data.inc with calibrate_per";
  }
}

TEST(LinkAbstraction, CalibratedPerMonotoneNonIncreasing) {
  const LinkAbstraction& table = LinkAbstraction::calibrated();
  for (const Mcs& m : phy::mcs_table()) {
    double prev = 1.1;
    for (double e = m.min_esnr_db - 10.0; e <= m.min_esnr_db + 6.0;
         e += 0.1) {
      const double p = table.per_1500(m, e);
      EXPECT_LE(p, prev + 1e-12) << "MCS " << m.index << " at " << e;
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
      prev = p;
    }
  }
}

TEST(LinkAbstraction, CalibratedWaterfallBracketsThreshold) {
  // The rate-selection thresholds are usable operating points: small PER
  // at the threshold, hopeless a few dB below it.
  const LinkAbstraction& table = LinkAbstraction::calibrated();
  for (const Mcs& m : phy::mcs_table()) {
    EXPECT_LE(table.per_1500(m, m.min_esnr_db), 0.15) << "MCS " << m.index;
    EXPECT_GE(table.per_1500(m, m.min_esnr_db - 6.5), 0.85)
        << "MCS " << m.index;
  }
}

TEST(LinkAbstraction, LengthScaling) {
  const LinkAbstraction& table = LinkAbstraction::calibrated();
  const Mcs& m = phy::mcs_by_index(4);
  // Pick an eSNR inside the waterfall so PER is neither 0 nor 1.
  double e = m.min_esnr_db;
  while (table.per_1500(m, e) < 0.02 && e > m.min_esnr_db - 7.0) e -= 0.1;
  const double p300 = table.per(m, e, 300);
  const double p1500 = table.per(m, e, 1500);
  const double p3000 = table.per(m, e, 3000);
  EXPECT_LT(p300, p1500);
  EXPECT_LT(p1500, p3000);
  // PER(L) = 1 - (1 - PER_1500)^(L/1500) exactly.
  EXPECT_NEAR(p3000, 1.0 - std::pow(1.0 - p1500, 2.0), 1e-12);
}

TEST(LinkAbstraction, InterpolatesAndClampsCustomCurve) {
  PerCurve c;
  c.mcs_index = 0;
  c.points = {{0.0, 1.0}, {10.0, 0.0}};
  const LinkAbstraction table({c});
  const Mcs& m = phy::mcs_by_index(0);
  EXPECT_DOUBLE_EQ(table.per_1500(m, 5.0), 0.5);
  EXPECT_DOUBLE_EQ(table.per_1500(m, 2.5), 0.75);
  EXPECT_DOUBLE_EQ(table.per_1500(m, -5.0), 1.0);  // clamped below grid
  EXPECT_DOUBLE_EQ(table.per_1500(m, 20.0), 0.0);  // clamped above grid
}

TEST(LinkAbstraction, AnalyticFallbackWithoutCurve) {
  const LinkAbstraction empty;
  const Mcs& m = phy::mcs_by_index(3);
  for (double e : {m.min_esnr_db - 3.0, m.min_esnr_db, m.min_esnr_db + 3.0}) {
    EXPECT_DOUBLE_EQ(empty.per(m, e, 1500),
                     phy::packet_error_rate(m, e, 1500));
  }
}

// --- Full-PHY reference scorer ------------------------------------------

TEST(FullPhyScorer, PayloadBytesForSymbolsInverts) {
  for (const Mcs& m : phy::mcs_table()) {
    for (std::size_t n_sym : {1u, 2u, 5u, 37u, 200u}) {
      const std::size_t bytes = phy::payload_bytes_for_symbols(n_sym, m);
      if (bytes == 0) continue;  // overhead alone exceeds tiny budgets
      EXPECT_LE(phy::encoded_symbol_count(bytes, m), n_sym)
          << m.index << " @ " << n_sym;
      // Maximal: one more byte would not fit (or lands exactly on the pad).
      EXPECT_GT(phy::encoded_symbol_count(bytes + 1, m), n_sym)
          << m.index << " @ " << n_sym;
    }
  }
  // A single BPSK-1/2 symbol (24 bits) cannot carry service+tail+CRC.
  EXPECT_EQ(phy::payload_bytes_for_symbols(1, phy::mcs_by_index(0)), 0u);
}

TEST(FullPhyScorer, DeliversAtHighSnrFailsAtLowSnr) {
  util::Rng rng(11);
  const std::vector<double> high(48, util::from_db(30.0));
  const std::vector<double> low(48, util::from_db(-10.0));
  for (const Mcs& m : phy::mcs_table()) {
    EXPECT_TRUE(phy::simulate_stream_delivery(400, m, high, rng))
        << "MCS " << m.index;
    EXPECT_FALSE(phy::simulate_stream_delivery(400, m, low, rng))
        << "MCS " << m.index;
  }
  EXPECT_FALSE(phy::simulate_stream_delivery(400, phy::mcs_by_index(0), {},
                                             rng));
}

TEST(FullPhyScorer, EmpiricalPerTracksCalibratedTable) {
  // The symbol-level scorer and the sample-level-calibrated table must
  // agree through the waterfall: well above threshold nearly everything
  // decodes, well below nearly nothing does.
  util::Rng rng(17);
  const Mcs& m = phy::mcs_by_index(5);
  const std::size_t kTrials = 40;
  auto empirical = [&](double esnr_db) {
    const std::vector<double> snr(48, util::from_db(esnr_db));
    std::size_t fail = 0;
    for (std::size_t t = 0; t < kTrials; ++t) {
      fail += phy::simulate_stream_delivery(1500, m, snr, rng) ? 0 : 1;
    }
    return static_cast<double>(fail) / static_cast<double>(kTrials);
  };
  EXPECT_LE(empirical(m.min_esnr_db + 3.0), 0.2);
  EXPECT_GE(empirical(m.min_esnr_db - 5.0), 0.8);
}

TEST(FullPhyScorer, ZeroLengthPayloadRoundTrips) {
  util::Rng rng(23);
  const std::vector<double> high(48, util::from_db(25.0));
  for (const Mcs& m : phy::mcs_table()) {
    EXPECT_TRUE(phy::simulate_stream_delivery(0, m, high, rng))
        << "MCS " << m.index;
  }
}

// --- Cross-mode structural identity at round level ----------------------

TEST(Fidelity, RoundProtocolTraceIdenticalAcrossModes) {
  util::Rng master(31);
  const sim::GeneratedTopology three_pair =
      sim::make_preset(sim::Preset::kThreePair, master);
  // One frozen stream per role, copied per use: Rng::fork advances the
  // parent, and World::estimate consumes world-internal RNG state, so each
  // mode gets its own freshly built — but bit-identical — world.
  const util::Rng world_base = master.fork(1);
  const util::Rng round_base = master.fork(2);
  // Inputs: the paper's three-pair layout on an eager world, and a
  // generated 100-pair topology on a lazy world.
  sim::GenConfig gen;
  gen.n_links = 100;
  util::Rng gen_rng = master.fork(3);
  sim::WorldConfig lazy;
  lazy.lazy_channels = true;
  const struct {
    sim::GeneratedTopology topo;
    sim::WorldConfig world;
  } inputs[] = {{three_pair, {}},
                {sim::generate_topology(gen, gen_rng), lazy}};

  sim::RoundConfig abs_cfg;
  abs_cfg.fidelity = sim::Fidelity::kAbstracted;
  sim::RoundConfig phy_cfg;
  phy_cfg.fidelity = sim::Fidelity::kFullPhy;

  for (const auto& in : inputs) {
    for (std::uint64_t seed = 0; seed < 5; ++seed) {
      util::Rng world_rng_a = world_base.duplicate();
      util::Rng world_rng_p = world_base.duplicate();
      const sim::World world_a =
          sim::make_world(in.topo, world_rng_a, in.world);
      const sim::World world_p =
          sim::make_world(in.topo, world_rng_p, in.world);
      util::Rng round_parent = round_base.duplicate();
      const util::Rng round_stream = round_parent.fork(100 + seed);
      util::Rng rng_a = round_stream.duplicate();
      util::Rng rng_p = round_stream.duplicate();  // identical child stream
      const sim::RoundResult a =
          sim::run_nplus_round(world_a, in.topo.scenario, rng_a, abs_cfg);
      const sim::RoundResult p =
          sim::run_nplus_round(world_p, in.topo.scenario, rng_p, phy_cfg);

      EXPECT_EQ(a.winner_order, p.winner_order) << in.topo.name;
      EXPECT_EQ(a.total_streams, p.total_streams);
      EXPECT_DOUBLE_EQ(a.duration_s, p.duration_s);
      ASSERT_EQ(a.links.size(), p.links.size());
      for (std::size_t l = 0; l < a.links.size(); ++l) {
        EXPECT_EQ(a.links[l].mcs_index, p.links[l].mcs_index);
        EXPECT_EQ(a.links[l].streams, p.links[l].streams);
        EXPECT_DOUBLE_EQ(a.links[l].esnr_db, p.links[l].esnr_db);
        EXPECT_DOUBLE_EQ(a.links[l].final_esnr_db,
                         p.links[l].final_esnr_db);
      }
    }
  }
}

// --- The headline cross-validation --------------------------------------

struct ModePair {
  sim::SessionResult abstracted;
  sim::SessionResult full_phy;
};

ModePair run_both_modes(sim::Preset preset, std::uint64_t seed,
                        std::size_t n_rounds) {
  ModePair out;
  for (int mode = 0; mode < 2; ++mode) {
    util::Rng rng(seed);
    util::Rng world_rng = rng.fork(11);
    util::Rng session_rng = rng.fork(12);
    const sim::GeneratedTopology topo = sim::make_preset(preset, rng);
    sim::World world = sim::make_world(topo, world_rng);
    sim::SessionConfig cfg;
    cfg.n_rounds = n_rounds;
    cfg.round.fidelity =
        mode == 0 ? sim::Fidelity::kAbstracted : sim::Fidelity::kFullPhy;
    (mode == 0 ? out.abstracted : out.full_phy) =
        sim::run_session(world, topo.scenario, session_rng, cfg);
  }
  return out;
}

class FidelityAgreement : public ::testing::TestWithParam<sim::Preset> {};

TEST_P(FidelityAgreement, AbstractedMatchesFullPhy) {
  // Identical forked streams => the protocol trace (winners, rates,
  // airtimes) must match EXACTLY; delivery is scored in expectation on one
  // side and as per-frame CRC realizations on the other, so throughput and
  // fairness agree statistically. Tolerances cover the Monte-Carlo noise
  // of kRounds Bernoulli deliveries plus residual calibration error.
  const std::size_t kRounds = 150;
  const ModePair r = run_both_modes(GetParam(), 42, kRounds);
  const sim::SessionResult& a = r.abstracted;
  const sim::SessionResult& p = r.full_phy;

  // Structure: exact.
  EXPECT_EQ(a.rounds, p.rounds);
  EXPECT_DOUBLE_EQ(a.duration_s, p.duration_s);
  EXPECT_DOUBLE_EQ(a.mean_winners_per_round, p.mean_winners_per_round);
  EXPECT_DOUBLE_EQ(a.mean_streams_per_round, p.mean_streams_per_round);
  EXPECT_DOUBLE_EQ(a.round_duration.mean(), p.round_duration.mean());

  // Delivery: statistical.
  ASSERT_GT(p.total_mbps, 0.0);
  EXPECT_NEAR(a.total_mbps / p.total_mbps, 1.0, 0.08)
      << "abstracted " << a.total_mbps << " Mb/s vs full-PHY "
      << p.total_mbps << " Mb/s";
  EXPECT_NEAR(a.jain, p.jain, 0.06);
  ASSERT_EQ(a.per_link_mbps.size(), p.per_link_mbps.size());
  double a_sum = 0.0, p_sum = 0.0;
  for (std::size_t l = 0; l < a.per_link_mbps.size(); ++l) {
    a_sum += a.per_link_mbps[l];
    p_sum += p.per_link_mbps[l];
  }
  EXPECT_NEAR(a_sum, a.total_mbps, 1e-9);
  EXPECT_NEAR(p_sum, p.total_mbps, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, FidelityAgreement,
    ::testing::Values(sim::Preset::kThreePair, sim::Preset::kHiddenTerminal,
                      sim::Preset::kExposedTerminal,
                      sim::Preset::kDenseCell),
    [](const ::testing::TestParamInfo<sim::Preset>& param_info) {
      return sim::preset_name(param_info.param);
    });

// --- Lazy world mode -----------------------------------------------------

TEST(LazyWorld, AccessOrderInvariantAndDeterministic) {
  util::Rng master(9);
  sim::GenConfig gen;
  gen.n_links = 4;
  util::Rng topo_rng = master.fork(1);
  const sim::GeneratedTopology topo = sim::generate_topology(gen, topo_rng);
  sim::WorldConfig cfg;
  cfg.lazy_channels = true;

  const util::Rng world_base = master.fork(2);  // fork once, copy per world
  util::Rng wr1 = world_base.duplicate();
  util::Rng wr2 = world_base.duplicate();
  const sim::World w1 = sim::make_world(topo, wr1, cfg);
  const sim::World w2 = sim::make_world(topo, wr2, cfg);

  const std::size_t tx = topo.scenario.links[0].tx_node;
  const std::size_t rx = topo.scenario.links[0].rx_node;

  // w1 reads the SNR scalar first, w2 materializes the channel first.
  const double s1 = w1.link_snr_db(tx, rx);
  const auto& c2 = w2.channel(tx, rx, 7);
  const auto& c1 = w1.channel(tx, rx, 7);
  const double s2 = w2.link_snr_db(tx, rx);
  EXPECT_DOUBLE_EQ(s1, s2);
  ASSERT_EQ(c1.rows(), c2.rows());
  ASSERT_EQ(c1.cols(), c2.cols());
  for (std::size_t i = 0; i < c1.rows(); ++i) {
    for (std::size_t j = 0; j < c1.cols(); ++j) {
      EXPECT_EQ(c1(i, j), c2(i, j));
    }
  }
  const auto& b1 = w1.reciprocal_channel(tx, rx, 3);
  const auto& b2 = w2.reciprocal_channel(tx, rx, 3);
  for (std::size_t i = 0; i < b1.rows(); ++i) {
    for (std::size_t j = 0; j < b1.cols(); ++j) {
      EXPECT_EQ(b1(i, j), b2(i, j));
    }
  }

  // Reverse direction is the exact reciprocal transpose.
  const auto& fwd = w1.channel(tx, rx, 7);
  const auto& rev = w1.channel(rx, tx, 7);
  ASSERT_EQ(fwd.rows(), rev.cols());
  ASSERT_EQ(fwd.cols(), rev.rows());
  for (std::size_t i = 0; i < fwd.rows(); ++i) {
    for (std::size_t j = 0; j < fwd.cols(); ++j) {
      EXPECT_EQ(fwd(i, j), rev(j, i));
    }
  }
  // SNR is symmetric.
  EXPECT_DOUBLE_EQ(w1.link_snr_db(tx, rx), w1.link_snr_db(rx, tx));
}

TEST(LazyWorld, SessionsReproduceAcrossInstances) {
  util::Rng master(13);
  sim::GenConfig gen;
  gen.n_links = 6;
  util::Rng topo_rng = master.fork(1);
  const sim::GeneratedTopology topo = sim::generate_topology(gen, topo_rng);
  sim::WorldConfig cfg;
  cfg.lazy_channels = true;

  const util::Rng world_base = master.fork(2);
  const util::Rng session_base = master.fork(3);
  sim::SessionResult res[2];
  for (int i = 0; i < 2; ++i) {
    util::Rng wr = world_base.duplicate();
    util::Rng sr = session_base.duplicate();
    sim::World w = sim::make_world(topo, wr, cfg);
    sim::SessionConfig scfg;
    scfg.n_rounds = 20;
    res[i] = sim::run_session(w, topo.scenario, sr, scfg);
  }
  EXPECT_EQ(res[0].per_link_mbps, res[1].per_link_mbps);
  EXPECT_DOUBLE_EQ(res[0].total_mbps, res[1].total_mbps);
  EXPECT_DOUBLE_EQ(res[0].duration_s, res[1].duration_s);
  EXPECT_DOUBLE_EQ(res[0].jain, res[1].jain);
}

TEST(LazyWorld, LargeWorldSessionRunsCheaply) {
  // The point of the mode: a 250-pair (500-node) world — far beyond the
  // eager O(N^2)-pair ceiling — builds instantly and runs a session.
  util::Rng master(7);
  sim::GenConfig gen;
  gen.n_links = 250;
  gen.area_w_m = 47.0;  // keep density near the 100-pair default
  gen.area_h_m = 28.0;
  gen.tx_mix.weights = {0.35, 0.30, 0.20, 0.15};
  gen.rx_mix.weights = {0.35, 0.30, 0.20, 0.15};
  util::Rng topo_rng = master.fork(1);
  util::Rng world_rng = master.fork(2);
  util::Rng session_rng = master.fork(3);
  const sim::GeneratedTopology topo = sim::generate_topology(gen, topo_rng);
  sim::WorldConfig cfg;
  cfg.lazy_channels = true;
  sim::World world = sim::make_world(topo, world_rng, cfg);
  sim::SessionConfig scfg;
  scfg.n_rounds = 8;
  const sim::SessionResult res =
      sim::run_session(world, topo.scenario, session_rng, scfg);
  EXPECT_EQ(res.rounds, 8u);
  EXPECT_GT(res.total_mbps, 0.0);
  EXPECT_GT(res.mean_winners_per_round, 0.0);
}

}  // namespace
}  // namespace nplus
