// Tests for the scenario engine: random topology generation (patterns,
// placement, antenna mixes, determinism), named stress presets, the sparse
// role-masked World mode, multi-round DCF sessions on the session clock,
// and the parallel generated-topology sweep.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "sim/checkpoint_runner.h"
#include "sim/round.h"
#include "sim/scenario_gen.h"
#include "sim/scenarios.h"
#include "sim/session.h"
#include "sim/world.h"

namespace nplus::sim {
namespace {

// --- Generator ----------------------------------------------------------

TEST(ScenarioGen, PeerPairShape) {
  GenConfig cfg;
  cfg.n_links = 7;
  util::Rng rng(1);
  const GeneratedTopology topo = generate_topology(cfg, rng);
  EXPECT_EQ(topo.scenario.nodes.size(), 14u);
  EXPECT_EQ(topo.scenario.links.size(), 7u);
  EXPECT_EQ(topo.testbed.n_locations(), 14u);
  EXPECT_EQ(topo.locations.size(), 14u);
  // Every node appears in exactly one link, as tx xor rx.
  std::set<std::size_t> seen;
  for (const auto& l : topo.scenario.links) {
    EXPECT_TRUE(seen.insert(l.tx_node).second);
    EXPECT_TRUE(seen.insert(l.rx_node).second);
    EXPECT_EQ(topo.roles[l.tx_node], kRoleTx);
    EXPECT_EQ(topo.roles[l.rx_node], kRoleRx);
  }
  EXPECT_EQ(seen.size(), 14u);
}

TEST(ScenarioGen, ApDownlinkShape) {
  GenConfig cfg;
  cfg.n_links = 5;
  cfg.pattern = LinkPattern::kApDownlink;
  cfg.links_per_ap = 2;
  util::Rng rng(2);
  const GeneratedTopology topo = generate_topology(cfg, rng);
  // 3 APs (2 + 2 + 1 clients) + 5 clients.
  EXPECT_EQ(topo.scenario.nodes.size(), 8u);
  EXPECT_EQ(topo.scenario.links.size(), 5u);
  EXPECT_EQ(topo.scenario.transmitters().size(), 3u);
  for (std::size_t tx : topo.scenario.transmitters()) {
    EXPECT_LE(topo.scenario.links_of(tx).size(), 2u);
    EXPECT_GE(topo.scenario.links_of(tx).size(), 1u);
  }
}

TEST(ScenarioGen, DeterministicFromForkedStream) {
  GenConfig cfg;
  cfg.n_links = 6;
  cfg.placement = PlacementMode::kClustered;
  util::Rng p1(42), p2(42);
  util::Rng a = p1.fork(5), b = p2.fork(5);
  const GeneratedTopology ta = generate_topology(cfg, a);
  const GeneratedTopology tb = generate_topology(cfg, b);
  ASSERT_EQ(ta.scenario.nodes.size(), tb.scenario.nodes.size());
  for (std::size_t i = 0; i < ta.scenario.nodes.size(); ++i) {
    EXPECT_EQ(ta.scenario.nodes[i].n_antennas,
              tb.scenario.nodes[i].n_antennas);
    EXPECT_DOUBLE_EQ(ta.testbed.location(i).x_m, tb.testbed.location(i).x_m);
    EXPECT_DOUBLE_EQ(ta.testbed.location(i).y_m, tb.testbed.location(i).y_m);
  }
  // A different fork label lands elsewhere.
  util::Rng p3(42);
  util::Rng c = p3.fork(6);
  const GeneratedTopology tc = generate_topology(cfg, c);
  bool any_diff = false;
  for (std::size_t i = 0; i < ta.scenario.nodes.size(); ++i) {
    any_diff = any_diff ||
               ta.testbed.location(i).x_m != tc.testbed.location(i).x_m;
  }
  EXPECT_TRUE(any_diff);
}

TEST(ScenarioGen, AntennaMixRespected) {
  GenConfig cfg;
  cfg.n_links = 40;
  cfg.tx_mix.weights = {0.0, 0.0, 0.0, 1.0};  // all 4-antenna tx
  cfg.rx_mix.weights = {1.0, 0.0, 0.0, 0.0};  // all 1-antenna rx
  util::Rng rng(3);
  const GeneratedTopology topo = generate_topology(cfg, rng);
  for (const auto& l : topo.scenario.links) {
    EXPECT_EQ(topo.scenario.nodes[l.tx_node].n_antennas, 4u);
    EXPECT_EQ(topo.scenario.nodes[l.rx_node].n_antennas, 1u);
  }
}

TEST(ScenarioGen, DrawAntennasCoversRangeAndHandlesZeroMix) {
  util::Rng rng(4);
  AntennaMix uniform;
  std::set<std::size_t> seen;
  for (int i = 0; i < 400; ++i) {
    const std::size_t a = draw_antennas(uniform, rng);
    EXPECT_GE(a, 1u);
    EXPECT_LE(a, 4u);
    seen.insert(a);
  }
  EXPECT_EQ(seen.size(), 4u);
  AntennaMix zero;
  zero.weights = {0.0, 0.0, 0.0, 0.0};
  for (int i = 0; i < 50; ++i) {
    const std::size_t a = draw_antennas(zero, rng);
    EXPECT_GE(a, 1u);
    EXPECT_LE(a, 4u);
  }
}

TEST(ScenarioGen, PlacementWithinAreaAndSeparated) {
  GenConfig cfg;
  cfg.n_links = 8;
  cfg.placement = PlacementMode::kClustered;
  cfg.min_separation_m = 1.0;
  util::Rng rng(5);
  const GeneratedTopology topo = generate_topology(cfg, rng);
  const std::size_t n = topo.testbed.n_locations();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& p = topo.testbed.location(i);
    EXPECT_GE(p.x_m, 0.0);
    EXPECT_LE(p.x_m, cfg.area_w_m);
    EXPECT_GE(p.y_m, 0.0);
    EXPECT_LE(p.y_m, cfg.area_h_m);
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      EXPECT_GE(topo.testbed.distance_m(i, j), cfg.min_separation_m)
          << i << "," << j;
    }
  }
}

TEST(ScenarioGen, PresetsHavePinnedShapes) {
  const GeneratedTopology tp = make_preset(Preset::kThreePair);
  EXPECT_STREQ(preset_name(Preset::kThreePair), "three_pair");
  // Matches the hand-built paper scenario exactly.
  const Scenario paper = three_pair_scenario();
  ASSERT_EQ(tp.scenario.nodes.size(), paper.nodes.size());
  for (std::size_t i = 0; i < paper.nodes.size(); ++i) {
    EXPECT_EQ(tp.scenario.nodes[i].n_antennas, paper.nodes[i].n_antennas);
  }
  ASSERT_EQ(tp.scenario.links.size(), paper.links.size());
  for (std::size_t i = 0; i < paper.links.size(); ++i) {
    EXPECT_EQ(tp.scenario.links[i].tx_node, paper.links[i].tx_node);
    EXPECT_EQ(tp.scenario.links[i].rx_node, paper.links[i].rx_node);
  }

  const GeneratedTopology hidden = make_preset(Preset::kHiddenTerminal);
  EXPECT_EQ(hidden.scenario.links.size(), 2u);
  // Transmitters far apart, receivers close together.
  EXPECT_GT(hidden.testbed.distance_m(0, 2), 20.0);
  EXPECT_LT(hidden.testbed.distance_m(1, 3), 4.0);

  const GeneratedTopology exposed =
      make_preset(Preset::kExposedTerminal);
  EXPECT_LT(exposed.testbed.distance_m(0, 2), 5.0);   // txs adjacent
  EXPECT_GT(exposed.testbed.distance_m(1, 3), 20.0);  // rxs far apart

  const GeneratedTopology dense = make_preset(Preset::kDenseCell);
  EXPECT_EQ(dense.scenario.nodes[0].n_antennas, 4u);
  EXPECT_EQ(dense.scenario.links_of(0).size(), 4u);
  EXPECT_EQ(dense.scenario.links.size(), 5u);
}

// --- Sparse world -------------------------------------------------------

// Every transmitter-to-receiver pair (not just same-link pairs) exists:
// the round builder needs cross-link interference channels.
void expect_exactly_tx_rx_pairs(const World& w,
                                const std::vector<std::uint8_t>& roles) {
  for (std::size_t a = 0; a < roles.size(); ++a) {
    for (std::size_t b = 0; b < roles.size(); ++b) {
      if (a == b) continue;
      if ((roles[a] & kRoleTx) && (roles[b] & kRoleRx)) {
        const linalg::CMat h = w.channel(a, b, 0);
        EXPECT_EQ(h.rows(), w.antennas(b));
        EXPECT_EQ(h.cols(), w.antennas(a));
        EXPECT_GT(w.link_snr_db(a, b), -300.0);
        const linalg::CMat r = w.reciprocal_channel(a, b, 0);
        EXPECT_EQ(r.rows(), w.antennas(b));
      } else if (!(roles[b] & kRoleTx)) {
        // rx-rx pair: unmaterialized, SNR stays at the floor.
        EXPECT_DOUBLE_EQ(w.link_snr_db(a, b), -300.0);
      }
    }
  }
}

TEST(SparseWorld, MaterializesExactlyTxRxPairs) {
  GenConfig cfg;
  cfg.n_links = 6;
  util::Rng rng(7);
  const GeneratedTopology topo = generate_topology(cfg, rng);
  util::Rng wrng(8);
  expect_exactly_tx_rx_pairs(make_world(topo, wrng), topo.roles);
  // Both paper scenarios placed on the testbed, a handful of seeds: the
  // same sparse world, and the redraw leaves every link at or above the
  // SNR floor.
  for (const Scenario& sc : {three_pair_scenario(), ap_scenario()}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      util::Rng placement_rng(seed);
      util::Rng world_rng(seed + 100);
      const World w = place_on_testbed(sc, placement_rng, world_rng);
      expect_exactly_tx_rx_pairs(w, node_roles(sc));
      for (const Link& l : sc.links) {
        EXPECT_GE(w.link_snr_db(l.tx_node, l.rx_node), kMinLinkSnrDb)
            << "seed " << seed;
      }
    }
  }
}

TEST(SparseWorld, EmptyRolesStaysDense) {
  const GeneratedTopology topo = make_preset(Preset::kThreePair);
  util::Rng wrng(10);
  // No roles: even rx-rx channels exist (the historical behavior).
  const World w(topo.testbed, topo.scenario.nodes, topo.locations, wrng);
  const linalg::CMat h = w.channel(1, 3, 0);  // rx1 -> rx2
  EXPECT_EQ(h.rows(), 2u);
  EXPECT_EQ(h.cols(), 1u);
  EXPECT_GT(w.link_snr_db(1, 3), -300.0);
}

TEST(SparseWorld, RoundRunsOnSparseChannels) {
  // A full n+ round only ever touches tx-rx pairs; run several on a sparse
  // 10-pair world to prove the mask covers the builder's access pattern.
  GenConfig cfg;
  cfg.n_links = 10;
  util::Rng rng(11);
  const GeneratedTopology topo = generate_topology(cfg, rng);
  util::Rng wrng(12);
  const World w = make_world(topo, wrng);
  RoundConfig rcfg;
  rcfg.dcf_contention = true;
  util::Rng rrng(13);
  for (int i = 0; i < 5; ++i) {
    const RoundResult res = run_nplus_round(w, topo.scenario, rrng, rcfg);
    EXPECT_LE(res.total_streams, 4u);
    for (const auto& l : res.links) {
      EXPECT_TRUE(std::isfinite(l.delivered_bits));
      EXPECT_GE(l.delivered_bits, 0.0);
    }
  }
}

// --- Sessions -----------------------------------------------------------

TEST(Session, JainIndexProperties) {
  EXPECT_DOUBLE_EQ(jain_index({}), 0.0);
  EXPECT_DOUBLE_EQ(jain_index({5.0, 5.0, 5.0, 5.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_index({0.0, 0.0}), 1.0);
  EXPECT_NEAR(jain_index({1.0, 0.0, 0.0, 0.0}), 0.25, 1e-12);
  const double j = jain_index({3.0, 1.0, 2.0});
  EXPECT_GT(j, 1.0 / 3.0);
  EXPECT_LT(j, 1.0);
}

class SessionSuite : public ::testing::Test {
 protected:
  World preset_world(std::uint64_t seed, Preset preset = Preset::kThreePair) {
    util::Rng rng(seed);
    topo_ = make_preset(preset);
    util::Rng wrng = rng.fork(1);
    return make_world(topo_, wrng);
  }
  GeneratedTopology topo_;
};

TEST_F(SessionSuite, RunsRequestedRoundsWithSeries) {
  World w = preset_world(20);
  SessionConfig cfg;
  cfg.n_rounds = 40;
  cfg.snapshot_every = 10;
  util::Rng rng(21);
  const SessionResult res = run_session(w, topo_.scenario, rng, cfg);
  EXPECT_EQ(res.rounds, 40u);
  EXPECT_EQ(res.per_link_mbps.size(), 3u);
  EXPECT_GT(res.duration_s, 0.0);
  EXPECT_GT(res.total_mbps, 0.0);
  EXPECT_GE(res.jain, 0.0);
  EXPECT_LE(res.jain, 1.0 + 1e-12);
  EXPECT_GE(res.mean_winners_per_round, 1.0);
  ASSERT_EQ(res.series.size(), 4u);
  for (std::size_t i = 1; i < res.series.size(); ++i) {
    EXPECT_GT(res.series[i].t_s, res.series[i - 1].t_s);
    EXPECT_GT(res.series[i].rounds, res.series[i - 1].rounds);
  }
  EXPECT_EQ(res.series.back().rounds, 40u);
  // The final snapshot is the cumulative result.
  EXPECT_DOUBLE_EQ(res.series.back().total_mbps, res.total_mbps);
  // Per-round stats streamed correctly.
  EXPECT_EQ(res.round_duration.count(), 40u);
  EXPECT_NEAR(res.round_duration.mean() * 40.0, res.duration_s, 1e-9);
}

TEST_F(SessionSuite, DeterministicForSameStream) {
  // Two identically-seeded worlds: World::estimate consumes the world's own
  // mutable RNG stream, so re-running a session on the SAME world object
  // continues that stream — reproducibility is (world seed, session seed),
  // not the session seed alone.
  World wa = preset_world(22);
  World wb = preset_world(22);
  SessionConfig cfg;
  cfg.n_rounds = 15;
  util::Rng r1(23), r2(23);
  const SessionResult a = run_session(wa, topo_.scenario, r1, cfg);
  const SessionResult b = run_session(wb, topo_.scenario, r2, cfg);
  EXPECT_DOUBLE_EQ(a.total_mbps, b.total_mbps);
  EXPECT_EQ(a.per_link_mbps, b.per_link_mbps);
  EXPECT_DOUBLE_EQ(a.duration_s, b.duration_s);
}

TEST_F(SessionSuite, MatchesManualRoundLoopExactly) {
  // The session is a plain clock chaining run_nplus_round: with identical
  // configs and RNG streams (including a fresh identically-seeded world,
  // whose estimate() draws advance per round), a hand-rolled loop must
  // reproduce its totals bit-for-bit (the clock adds/loses nothing). The
  // idle gap starts every round but the first, so the hand-rolled clock
  // adds it after every round but the last, in the session's order.
  for (const double gap : {0.0, 2e-3}) {
    World wa = preset_world(26);
    World wb = preset_world(26);
    SessionConfig cfg;
    cfg.n_rounds = 25;
    cfg.snapshot_every = 0;
    cfg.inter_round_gap_s = gap;
    util::Rng r1(27), r2(27);
    const SessionResult res = run_session(wa, topo_.scenario, r1, cfg);

    double bits = 0.0, clock = 0.0;
    for (std::size_t i = 0; i < cfg.n_rounds; ++i) {
      const RoundResult round = run_nplus_round(wb, topo_.scenario, r2,
                                                cfg.round);
      clock += round.duration_s;
      if (i + 1 < cfg.n_rounds) clock += gap;
      for (const auto& l : round.links) bits += l.delivered_bits;
    }
    EXPECT_EQ(res.duration_s, clock) << "gap " << gap;
    EXPECT_DOUBLE_EQ(res.total_mbps, bits / clock / 1e6) << "gap " << gap;
  }
}

TEST_F(SessionSuite, DcfSessionMatchesPaperPathWithinNoise) {
  // Acceptance check: the generated three-pair preset, driven through the
  // new engine (multi-round session, real DCF backoff), reproduces the
  // paper-faithful run_nplus_round path (random-winner methodology) within
  // noise. Same world, both with full MAC overheads.
  World w = preset_world(28);
  SessionConfig cfg;
  cfg.n_rounds = 250;
  cfg.snapshot_every = 0;
  util::Rng srng(29);
  const SessionResult dcf = run_session(w, topo_.scenario, srng, cfg);

  RoundConfig paper;
  paper.dcf_contention = false;  // §6.3 random-winner methodology
  util::Rng prng(30);
  double bits = 0.0, busy = 0.0;
  for (int i = 0; i < 250; ++i) {
    const RoundResult round = run_nplus_round(w, topo_.scenario, prng, paper);
    busy += round.duration_s;
    for (const auto& l : round.links) bits += l.delivered_bits;
  }
  const double paper_mbps = bits / busy / 1e6;
  ASSERT_GT(paper_mbps, 0.0);
  const double ratio = dcf.total_mbps / paper_mbps;
  EXPECT_GT(ratio, 0.75) << dcf.total_mbps << " vs " << paper_mbps;
  EXPECT_LT(ratio, 1.35) << dcf.total_mbps << " vs " << paper_mbps;
}

TEST_F(SessionSuite, ExposedTerminalSustainsConcurrency) {
  // The exposed-terminal preset is the canonical n+ win: whenever the
  // single-antenna link wins the primary contention (~half the rounds), the
  // two-antenna link should join over the spare DoF instead of staying
  // serialized.
  World w = preset_world(31, Preset::kExposedTerminal);
  SessionConfig cfg;
  cfg.n_rounds = 60;
  cfg.snapshot_every = 0;
  util::Rng rng(32);
  const SessionResult res = run_session(w, topo_.scenario, rng, cfg);
  EXPECT_GT(res.mean_winners_per_round, 1.1);
  EXPECT_GT(res.total_mbps, 0.0);
}

// --- Parallel sweep -----------------------------------------------------

// Runs a sweep through the sweep executor at `threads` workers (0 = global
// pool); every item must complete.
std::vector<SessionResult> run_sweep(const std::vector<SweepItem>& items,
                                     std::uint64_t seed,
                                     std::size_t threads) {
  RunnerConfig cfg;
  cfg.supervisor.n_threads = threads;
  SweepOutcome out = CheckpointedRunner(items, seed, cfg).run();
  EXPECT_TRUE(out.complete()) << out.report.summary();
  return std::move(out.results);
}

TEST(GeneratedSweep, BitIdenticalAcrossThreadCounts) {
  SweepItem item;
  item.gen.n_links = 3;
  item.session.n_rounds = 8;
  item.session.snapshot_every = 0;
  std::vector<SweepItem> items(3, item);
  items[1].gen.n_links = 5;
  items[2].gen.pattern = LinkPattern::kApDownlink;
  // Fig. 13's scenario placed on the testbed, one placement, three schemes.
  for (const Scheme scheme :
       {Scheme::kNplus, Scheme::kDot11n, Scheme::kBeamforming}) {
    SweepItem placed = item;
    placed.on_testbed = ap_scenario();
    placed.stream = 3;
    placed.session.round = RoundConfig{};
    placed.session.scheme = scheme;
    items.push_back(placed);
  }
  const auto a = run_sweep(items, 2026, 1);
  const auto b = run_sweep(items, 2026, 2);
  const auto c = run_sweep(items, 2026, 5);
  ASSERT_EQ(a.size(), items.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].total_mbps, b[i].total_mbps);
    EXPECT_DOUBLE_EQ(a[i].total_mbps, c[i].total_mbps);
    EXPECT_EQ(a[i].per_link_mbps, b[i].per_link_mbps);
    EXPECT_EQ(a[i].per_link_mbps, c[i].per_link_mbps);
    EXPECT_DOUBLE_EQ(a[i].jain, c[i].jain);
  }
}

TEST(GeneratedSweep, ScalesToLargerWorlds) {
  // 25 mixed-antenna pairs through the sparse world + DCF session: the
  // smallest "beyond the paper" scale, kept short for CI.
  SweepItem item;
  item.gen.n_links = 25;
  item.gen.tx_mix.weights = {0.4, 0.3, 0.2, 0.1};
  item.gen.rx_mix.weights = {0.4, 0.3, 0.2, 0.1};
  item.session.n_rounds = 4;
  item.session.snapshot_every = 0;
  const auto res = run_sweep({item}, 5, 0);
  ASSERT_EQ(res.size(), 1u);
  EXPECT_EQ(res[0].rounds, 4u);
  EXPECT_EQ(res[0].per_link_mbps.size(), 25u);
  EXPECT_TRUE(std::isfinite(res[0].total_mbps));
  EXPECT_GE(res[0].total_mbps, 0.0);
  EXPECT_GE(res[0].mean_winners_per_round, 1.0);
}

}  // namespace
}  // namespace nplus::sim
