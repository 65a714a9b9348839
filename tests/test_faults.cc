// Fault-injection engine + failure-aware MAC tests (sim/faults.h).
//
// Covers the determinism contracts (faults-off is the exact pre-fault code
// path; faults-on is bit-identical across thread counts), the statistical
// behavior of the recovery machinery (retry chains geometric in the
// injected loss rate, lost ACKs split goodput from throughput, outages
// produce measurable recovery times), the graceful-degradation guarantees
// (header-loss fallback keeps n+ at stock-802.11 behavior, degenerate
// channels never leak NaN into results), and the config validation added
// across SessionConfig / FaultConfig / GenConfig / WorldConfig.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "mac/airtime.h"
#include "phy/link_abstraction.h"
#include "phy/mcs.h"
#include "sim/checkpoint_runner.h"
#include "sim/faults.h"
#include "sim/scenario_gen.h"
#include "sim/session.h"
#include "util/rng.h"
#include "util/trace.h"

namespace nplus {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// A PER table that never loses a frame, for any MCS at any eSNR — it makes
// injected losses the ONLY loss process, so retry statistics can be checked
// against closed forms.
phy::LinkAbstraction zero_per_table() {
  std::vector<phy::PerCurve> curves;
  for (const phy::Mcs& m : phy::mcs_table()) {
    phy::PerCurve c;
    c.mcs_index = m.index;
    c.points.push_back({-100.0, 0.0});
    c.points.push_back({100.0, 0.0});
    curves.push_back(c);
  }
  return phy::LinkAbstraction(curves);
}

void expect_sessions_equal(const sim::SessionResult& a,
                           const sim::SessionResult& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.total_mbps, b.total_mbps);
  EXPECT_EQ(a.goodput_mbps, b.goodput_mbps);
  EXPECT_EQ(a.jain, b.jain);
  EXPECT_EQ(a.mean_winners_per_round, b.mean_winners_per_round);
  EXPECT_EQ(a.mean_active_links, b.mean_active_links);
  EXPECT_EQ(a.degenerate_esnr, b.degenerate_esnr);
  ASSERT_EQ(a.per_link_mbps.size(), b.per_link_mbps.size());
  for (std::size_t l = 0; l < a.per_link_mbps.size(); ++l) {
    EXPECT_EQ(a.per_link_mbps[l], b.per_link_mbps[l]);
    EXPECT_EQ(a.per_link_goodput_mbps[l], b.per_link_goodput_mbps[l]);
  }
  EXPECT_EQ(a.faults.frames_completed, b.faults.frames_completed);
  EXPECT_EQ(a.faults.frames_dropped, b.faults.frames_dropped);
  EXPECT_EQ(a.faults.retransmissions, b.faults.retransmissions);
  EXPECT_EQ(a.faults.ack_losses, b.faults.ack_losses);
  EXPECT_EQ(a.faults.header_deferrals, b.faults.header_deferrals);
  EXPECT_EQ(a.faults.blind_joins, b.faults.blind_joins);
  EXPECT_EQ(a.faults.csi_failures, b.faults.csi_failures);
  EXPECT_EQ(a.faults.outages, b.faults.outages);
  ASSERT_EQ(a.faults.retry_histogram.size(), b.faults.retry_histogram.size());
  for (std::size_t k = 0; k < a.faults.retry_histogram.size(); ++k) {
    EXPECT_EQ(a.faults.retry_histogram[k], b.faults.retry_histogram[k]);
  }
}

// --- Determinism contracts ----------------------------------------------

TEST(Faults, DisabledConfigIsTheAllOffSession) {
  // A FaultConfig whose enabled() is false — whatever its inert knobs say
  // — builds no injector and makes no fault draws: it reproduces the
  // default session on a twin world draw for draw. (tests/golden pins the
  // all-off draw sequence itself.)
  const sim::GeneratedTopology topo =
      sim::make_preset(sim::Preset::kThreePair);
  sim::SessionConfig cfg;
  cfg.n_rounds = 30;
  sim::SessionConfig inert = cfg;
  inert.faults.header_fallback_defer = false;
  inert.faults.node_recovery_hz = 9.0;
  inert.faults.retry_limit = 3;
  ASSERT_FALSE(inert.faults.enabled());

  util::Rng w1(5), s1(6);
  sim::World world = sim::make_world(topo, w1);
  const sim::SessionResult a =
      sim::run_session(world, topo.scenario, s1, cfg);
  util::Rng w2(5), s2(6);
  sim::World twin = sim::make_world(topo, w2);
  const sim::SessionResult b =
      sim::run_session(twin, topo.scenario, s2, inert);
  expect_sessions_equal(a, b);
  // Faults-off accounting invariants: goodput == throughput exactly, no
  // fault counters touched.
  EXPECT_EQ(a.total_mbps, a.goodput_mbps);
  EXPECT_EQ(a.faults.frames_completed, 0u);
  EXPECT_EQ(a.degenerate_esnr, 0u);
}

TEST(Faults, BitIdenticalAcrossThreadCounts) {
  // Faulty sessions keep the sweep harness's headline contract: every
  // counter — including the retry histogram — is byte-identical at any
  // pool size, because the injector's stream is forked per item before
  // dispatch and every hook runs in a fixed order.
  std::vector<sim::SweepItem> items;
  for (int i = 0; i < 3; ++i) {
    sim::SweepItem item;
    item.gen.n_links = 5;
    item.session.n_rounds = 40;
    item.session.faults.frame_loss_rate = 0.25;
    item.session.faults.ack_loss_rate = 0.1;
    item.session.faults.header_loss_rate = 0.3;
    item.session.faults.csi_failure_rate = 0.2;
    item.session.faults.degenerate_channel_rate = 0.05;
    item.session.faults.node_outage_hz = 5.0;
    item.session.faults.node_recovery_hz = 50.0;
    item.session.scheme =
        i == 2 ? sim::Scheme::kDot11n : sim::Scheme::kNplus;
    items.push_back(item);
  }
  const auto run_sweep = [&](std::size_t threads) {
    sim::RunnerConfig cfg;
    cfg.supervisor.n_threads = threads;
    sim::SweepOutcome out = sim::CheckpointedRunner(items, 77, cfg).run();
    EXPECT_TRUE(out.complete()) << out.report.summary();
    return out.results;
  };
  const auto r1 = run_sweep(1);
  const auto r3 = run_sweep(3);
  const auto rn = run_sweep(0);
  ASSERT_EQ(r1.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    expect_sessions_equal(r1[i], r3[i]);
    expect_sessions_equal(r1[i], rn[i]);
  }
}

// --- Retry chains --------------------------------------------------------

TEST(Faults, RetryDistributionIsGeometric) {
  // One link, zero natural loss, injected frame_loss_rate p = 0.4: a frame
  // completes after exactly k retries with probability (1-p) p^k, so
  // consecutive histogram bins must fall off by ~p.
  util::Rng t(1);
  sim::GenConfig gen;
  gen.n_links = 1;
  const sim::GeneratedTopology topo = sim::generate_topology(gen, t);

  const phy::LinkAbstraction lossless = zero_per_table();
  sim::SessionConfig cfg;
  cfg.n_rounds = 1200;
  cfg.round.link_abstraction = &lossless;
  cfg.faults.mac_recovery = true;
  cfg.faults.frame_loss_rate = 0.4;

  util::Rng w(9), s(10);
  sim::World world = sim::make_world(topo, w);
  const sim::SessionResult r =
      sim::run_session(world, topo.scenario, s, cfg);

  const auto& h = r.faults.retry_histogram;
  ASSERT_EQ(h.size(), 8u);  // retry_limit 7 -> bins 0..7
  EXPECT_GT(r.faults.frames_completed, 500u);
  EXPECT_GT(r.faults.retransmissions, 100u);
  // Bin 0 holds ~60% of completed frames.
  const double f0 = static_cast<double>(h[0]) /
                    static_cast<double>(r.faults.frames_completed);
  EXPECT_NEAR(f0, 0.6, 0.08);
  // Successive ratio ~= p (checked where bins still have mass).
  for (std::size_t k = 0; k + 1 < 3; ++k) {
    ASSERT_GT(h[k], 0u);
    const double ratio =
        static_cast<double>(h[k + 1]) / static_cast<double>(h[k]);
    EXPECT_NEAR(ratio, 0.4, 0.15);
  }
  // With p = 0.4 and 8 attempts, drops are ~0.4^8 = 0.07% of frames: rare
  // but the machinery must count whatever happened, and every delivered
  // frame is a first delivery (no ACKs were lost).
  EXPECT_EQ(r.total_mbps, r.goodput_mbps);
  EXPECT_EQ(r.faults.ack_losses, 0u);
}

TEST(Faults, PureMacRecoveryOverLosslessChannelIsLossFree) {
  // mac_recovery alone (no injected losses, lossless PER table): every
  // frame completes with zero retries, goodput == throughput, nothing
  // drops — the recovery machinery is inert when nothing fails.
  util::Rng t(2);
  sim::GenConfig gen;
  gen.n_links = 2;
  const sim::GeneratedTopology topo = sim::generate_topology(gen, t);
  const phy::LinkAbstraction lossless = zero_per_table();
  sim::SessionConfig cfg;
  cfg.n_rounds = 50;
  cfg.round.link_abstraction = &lossless;
  cfg.faults.mac_recovery = true;
  util::Rng w(3), s(4);
  sim::World world = sim::make_world(topo, w);
  const sim::SessionResult r =
      sim::run_session(world, topo.scenario, s, cfg);
  EXPECT_GT(r.faults.frames_completed, 0u);
  EXPECT_EQ(r.faults.retransmissions, 0u);
  EXPECT_EQ(r.faults.frames_dropped, 0u);
  EXPECT_EQ(r.total_mbps, r.goodput_mbps);
  EXPECT_GT(r.total_mbps, 0.0);
}

// --- Lost ACKs -----------------------------------------------------------

TEST(Faults, LostAcksCauseDoubleDeliveries) {
  // ack_loss_rate > 0 over a lossless channel: every lost ACK forces a
  // retransmission of a frame the receiver already has, so throughput
  // strictly exceeds goodput and duplicates = retransmissions of
  // delivered-once frames.
  util::Rng t(3);
  sim::GenConfig gen;
  gen.n_links = 1;
  const sim::GeneratedTopology topo = sim::generate_topology(gen, t);
  const phy::LinkAbstraction lossless = zero_per_table();
  sim::SessionConfig cfg;
  cfg.n_rounds = 400;
  cfg.round.link_abstraction = &lossless;
  cfg.faults.ack_loss_rate = 0.4;
  util::Rng w(11), s(12);
  sim::World world = sim::make_world(topo, w);
  const sim::SessionResult r =
      sim::run_session(world, topo.scenario, s, cfg);
  EXPECT_GT(r.faults.ack_losses, 50u);
  EXPECT_GT(r.faults.retransmissions, 0u);
  EXPECT_GT(r.total_mbps, r.goodput_mbps);
  EXPECT_GT(r.goodput_mbps, 0.0);
  // The physical channel never lost a frame, so every retransmission was a
  // double delivery; the bit gap matches exactly.
  double thr = 0.0, good = 0.0;
  for (std::size_t l = 0; l < r.per_link_mbps.size(); ++l) {
    thr += r.per_link_mbps[l];
    good += r.per_link_goodput_mbps[l];
  }
  EXPECT_NEAR(thr, r.total_mbps, 1e-12);
  EXPECT_NEAR(good, r.goodput_mbps, 1e-12);
}

TEST(Faults, TracedClockStepsAtRoundStartsAndAckTimeouts) {
  // The session clock steps only at round starts and ACK-timeout expiries,
  // and each step is one kSimEvent record. With lost ACKs on a lossless
  // one-link channel, every un-ACKed round is one lost ACK, so the records
  // are exactly the rounds plus the lost ACKs, and each step lands where
  // the previous round's body ended plus the ACK timeout, the idle gap, or
  // both.
  util::Rng t(3);
  sim::GenConfig gen;
  gen.n_links = 1;
  const sim::GeneratedTopology topo = sim::generate_topology(gen, t);
  const phy::LinkAbstraction lossless = zero_per_table();
  sim::SessionConfig cfg;
  cfg.n_rounds = 200;
  cfg.inter_round_gap_s = 1e-4;
  cfg.round.link_abstraction = &lossless;
  cfg.faults.ack_loss_rate = 0.4;
  util::TraceRing ring(0, 4096);
  cfg.trace = &ring;
  util::Rng w(11), s(12);
  sim::World world = sim::make_world(topo, w);
  const sim::SessionResult r =
      sim::run_session(world, topo.scenario, s, cfg);
  ASSERT_EQ(ring.dropped(), 0u);
  ASSERT_GT(r.faults.ack_losses, 20u);

  const double gap = cfg.inter_round_gap_s;
  const double ack = mac::ack_timeout_s(cfg.round.airtime);
  const auto kSim = static_cast<std::uint32_t>(util::TraceEvent::kSimEvent);
  const auto kEnd = static_cast<std::uint32_t>(util::TraceEvent::kRoundEnd);
  std::uint64_t steps = 0, ack_steps = 0;
  double round_end = -1.0;  // no round has ended yet
  for (const util::TraceRecord& rec : ring.drain()) {
    if (rec.type == kEnd) round_end = rec.t;
    if (rec.type != kSim) continue;
    EXPECT_EQ(rec.a, steps);
    EXPECT_EQ(rec.b, rec.t);
    if (steps == 0) {
      EXPECT_EQ(rec.t, 0.0);
    } else if (rec.t == round_end + ack) {
      ++ack_steps;
    } else {
      EXPECT_TRUE(rec.t == round_end + gap || rec.t == round_end + ack + gap)
          << "step " << steps << " at " << rec.t << ", round ended at "
          << round_end;
    }
    ++steps;
  }
  EXPECT_EQ(ack_steps, r.faults.ack_losses);
  EXPECT_EQ(steps, r.rounds + ack_steps);
}

// --- Outages and recovery ------------------------------------------------

TEST(Faults, OutagesMaskLinksAndRecoveryIsTimed) {
  util::Rng t(4);
  sim::GenConfig gen;
  gen.n_links = 3;
  const sim::GeneratedTopology topo = sim::generate_topology(gen, t);
  sim::SessionConfig cfg;
  cfg.n_rounds = 400;
  cfg.faults.node_outage_hz = 30.0;     // mean up-time ~33 ms (~15 rounds)
  cfg.faults.node_recovery_hz = 300.0;  // mean down-time ~3 ms
  util::Rng w(13), s(14);
  sim::World world = sim::make_world(topo, w);
  const sim::SessionResult r =
      sim::run_session(world, topo.scenario, s, cfg);
  EXPECT_GT(r.faults.outages, 0u);
  // Some outages completed (node restarted) and some links re-delivered
  // after a restart, so both timelines have samples — and a crashed node's
  // links really did leave contention.
  EXPECT_GT(r.faults.outage_s.count(), 0u);
  EXPECT_GT(r.faults.recovery_s.count(), 0u);
  EXPECT_GT(r.faults.outage_s.mean(), 0.0);
  EXPECT_GT(r.faults.recovery_s.mean(), 0.0);
  EXPECT_LT(r.mean_active_links, 3.0);
  EXPECT_GT(r.total_mbps, 0.0);
}

// --- Control-plane (header) loss -----------------------------------------

TEST(Faults, HeaderLossWithFallbackDefersJoiners) {
  // header_loss_rate = 1 with the graceful fallback: no joiner ever
  // decodes the ongoing transmission's headers, everyone defers, and every
  // round has exactly one winner — n+ degrades to stock 802.11, never
  // below it.
  const sim::GeneratedTopology topo =
      sim::make_preset(sim::Preset::kThreePair);
  sim::SessionConfig cfg;
  cfg.n_rounds = 60;
  cfg.faults.header_loss_rate = 1.0;
  ASSERT_TRUE(cfg.faults.header_fallback_defer);
  util::Rng w(15), s(16);
  sim::World world = sim::make_world(topo, w);
  const sim::SessionResult r =
      sim::run_session(world, topo.scenario, s, cfg);
  EXPECT_DOUBLE_EQ(r.mean_winners_per_round, 1.0);
  EXPECT_GT(r.faults.header_deferrals, 0u);
  EXPECT_EQ(r.faults.blind_joins, 0u);
  EXPECT_GT(r.total_mbps, 0.0);

  // Same plan with the fallback off: joiners go blind instead (the
  // collide-risk alternative is exercised, counted, and still finite).
  sim::SessionConfig blind = cfg;
  blind.faults.header_fallback_defer = false;
  util::Rng w2(15), s2(16);
  sim::World world2 = sim::make_world(topo, w2);
  const sim::SessionResult rb =
      sim::run_session(world2, topo.scenario, s2, blind);
  EXPECT_GT(rb.faults.blind_joins, 0u);
  EXPECT_EQ(rb.faults.header_deferrals, 0u);
  EXPECT_TRUE(std::isfinite(rb.total_mbps));
}

// --- Degenerate channels / NaN guards ------------------------------------

TEST(Faults, DegenerateChannelsAreClampedNotPropagated) {
  const sim::GeneratedTopology topo =
      sim::make_preset(sim::Preset::kThreePair);
  sim::SessionConfig cfg;
  cfg.n_rounds = 60;
  cfg.faults.degenerate_channel_rate = 0.5;
  util::Rng w(17), s(18);
  sim::World world = sim::make_world(topo, w);
  const sim::SessionResult r =
      sim::run_session(world, topo.scenario, s, cfg);
  // The injection fired and the sanitizer counted the clamps...
  EXPECT_GT(r.degenerate_esnr, 0u);
  EXPECT_EQ(r.faults.degenerate_esnr, r.degenerate_esnr);
  // ...and nothing non-finite leaked into any reported rate.
  EXPECT_TRUE(std::isfinite(r.total_mbps));
  EXPECT_TRUE(std::isfinite(r.goodput_mbps));
  EXPECT_TRUE(std::isfinite(r.jain));
  for (double v : r.per_link_mbps) EXPECT_TRUE(std::isfinite(v));
  for (double v : r.per_link_goodput_mbps) EXPECT_TRUE(std::isfinite(v));
  EXPECT_GT(r.total_mbps, 0.0);  // healthy rounds still deliver
}

TEST(Faults, PerTableRejectsNonFiniteEsnr) {
  // The eSNR -> PER guard: a NaN/Inf measurement means the packet is lost
  // (PER 1), never an arbitrary interpolation — on the calibrated table
  // and on the analytic fallback alike.
  const phy::LinkAbstraction& cal = phy::LinkAbstraction::calibrated();
  const phy::LinkAbstraction analytic;  // empty table -> analytic model
  const phy::Mcs& m = phy::mcs_table()[3];
  EXPECT_EQ(cal.per_1500(m, kNaN), 1.0);
  EXPECT_EQ(cal.per(m, kNaN, 700), 1.0);
  EXPECT_EQ(cal.per(m, std::numeric_limits<double>::infinity(), 1500), 1.0);
  EXPECT_EQ(analytic.per(m, kNaN, 1500), 1.0);
  // Finite values are untouched by the guard.
  EXPECT_LT(cal.per_1500(m, 40.0), 0.01);
}

// --- The 802.11n scheme under the session engine -------------------------

TEST(Faults, Dot11nSchemeRunsUnderFaults) {
  const sim::GeneratedTopology topo =
      sim::make_preset(sim::Preset::kThreePair);
  sim::SessionConfig cfg;
  cfg.n_rounds = 60;
  cfg.scheme = sim::Scheme::kDot11n;
  cfg.faults.mac_recovery = true;
  cfg.faults.frame_loss_rate = 0.2;
  util::Rng w(19), s(20);
  sim::World world = sim::make_world(topo, w);
  const sim::SessionResult r =
      sim::run_session(world, topo.scenario, s, cfg);
  // One link per round, by construction — nobody joins in 802.11n.
  EXPECT_DOUBLE_EQ(r.mean_winners_per_round, 1.0);
  EXPECT_GT(r.total_mbps, 0.0);
  EXPECT_GT(r.faults.frames_completed, 0u);
  EXPECT_GT(r.faults.retransmissions, 0u);
}

// --- Config validation ---------------------------------------------------

TEST(Validation, SessionConfigRejectsNonsense) {
  sim::SessionConfig ok;
  EXPECT_NO_THROW(ok.validate());

  sim::SessionConfig c2;
  c2.inter_round_gap_s = -1.0;
  EXPECT_THROW(c2.validate(), std::invalid_argument);

  sim::SessionConfig c3;
  c3.round.packet_bytes = 0;
  EXPECT_THROW(c3.validate(), std::invalid_argument);

  sim::SessionConfig c4;
  c4.dynamics.churn.flow_arrival_hz = -2.0;
  EXPECT_THROW(c4.validate(), std::invalid_argument);

  sim::SessionConfig c5;
  c5.dynamics.churn.idle_step_s = 0.0;
  EXPECT_THROW(c5.validate(), std::invalid_argument);

  sim::SessionConfig c6;
  c6.dynamics.mobility.speed_min_mps = 5.0;
  c6.dynamics.mobility.speed_max_mps = 1.0;
  EXPECT_THROW(c6.validate(), std::invalid_argument);

  sim::SessionConfig c7;
  c7.dynamics.mobility.mobile_fraction = 1.5;
  EXPECT_THROW(c7.validate(), std::invalid_argument);

  sim::SessionConfig c8;
  c8.dynamics.evolution.carrier_hz = 0.0;
  EXPECT_THROW(c8.validate(), std::invalid_argument);

  // Beamforming runs static, random-winner sessions only.
  sim::SessionConfig bf;
  bf.scheme = sim::Scheme::kBeamforming;
  bf.round.dcf_contention = false;
  EXPECT_NO_THROW(bf.validate());
  sim::SessionConfig bf_dcf = bf;
  bf_dcf.round.dcf_contention = true;
  EXPECT_THROW(bf_dcf.validate(), std::invalid_argument);
  sim::SessionConfig bf_faults = bf;
  bf_faults.faults.mac_recovery = true;
  EXPECT_THROW(bf_faults.validate(), std::invalid_argument);
  sim::SessionConfig bf_dynamic = bf;
  bf_dynamic.dynamics.use_rate_control = true;
  EXPECT_THROW(bf_dynamic.validate(), std::invalid_argument);
}

TEST(Validation, FaultConfigRejectsNonsense) {
  sim::FaultConfig ok;
  EXPECT_NO_THROW(ok.validate());

  sim::FaultConfig c1;
  c1.header_loss_rate = 1.5;
  EXPECT_THROW(c1.validate(), std::invalid_argument);

  sim::FaultConfig c2;
  c2.ack_loss_rate = kNaN;
  EXPECT_THROW(c2.validate(), std::invalid_argument);

  sim::FaultConfig c3;
  c3.node_outage_hz = -1.0;
  EXPECT_THROW(c3.validate(), std::invalid_argument);

  sim::FaultConfig c4;
  c4.retry_limit = -1;
  EXPECT_THROW(c4.validate(), std::invalid_argument);

  // Crashed nodes that can never restart are a config bug, not a feature.
  sim::FaultConfig c5;
  c5.node_outage_hz = 1.0;
  c5.node_recovery_hz = 0.0;
  EXPECT_THROW(c5.validate(), std::invalid_argument);

  // run_session enforces it on entry.
  const sim::GeneratedTopology topo =
      sim::make_preset(sim::Preset::kThreePair);
  util::Rng w(21), s(22);
  sim::World world = sim::make_world(topo, w);
  sim::SessionConfig bad;
  bad.faults.frame_loss_rate = 2.0;
  EXPECT_THROW(sim::run_session(world, topo.scenario, s, bad),
               std::invalid_argument);
}

TEST(Validation, GenConfigRejectsNonsense) {
  util::Rng rng(1);

  sim::GenConfig zero;
  zero.n_links = 0;  // a zero-node world
  EXPECT_THROW(sim::generate_topology(zero, rng), std::invalid_argument);

  sim::GenConfig area;
  area.area_w_m = kNaN;
  EXPECT_THROW(sim::generate_topology(area, rng), std::invalid_argument);

  sim::GenConfig neg;
  neg.min_separation_m = -1.0;
  EXPECT_THROW(sim::generate_topology(neg, rng), std::invalid_argument);

  sim::GenConfig band;
  band.min_pair_distance_m = 10.0;
  band.max_pair_distance_m = 2.0;  // inverted band
  EXPECT_THROW(sim::generate_topology(band, rng), std::invalid_argument);
}

TEST(Validation, WorldConfigRejectsNonsense) {
  const sim::GeneratedTopology topo =
      sim::make_preset(sim::Preset::kThreePair);

  sim::WorldConfig cal;
  cal.calibration_std = kNaN;
  {
    util::Rng w(1);
    EXPECT_THROW(sim::make_world(topo, w, cal), std::invalid_argument);
  }

  sim::WorldConfig noise;
  noise.estimation_noise_scale = -0.5;
  {
    util::Rng w(1);
    EXPECT_THROW(sim::make_world(topo, w, noise), std::invalid_argument);
  }

  sim::WorldConfig fft0;
  fft0.fft_size = 0;
  {
    util::Rng w(1);
    EXPECT_THROW(sim::make_world(topo, w, fft0), std::invalid_argument);
  }

  sim::WorldConfig fft3;
  fft3.fft_size = 48;  // not a power of two
  {
    util::Rng w(1);
    EXPECT_THROW(sim::make_world(topo, w, fft3), std::invalid_argument);
  }

  // A node without antennas: 0 x M channels, a NaN link SNR.
  {
    sim::GeneratedTopology no_antennas = topo;
    no_antennas.scenario.nodes[1].n_antennas = 0;
    util::Rng w(1);
    EXPECT_THROW(sim::make_world(no_antennas, w), std::invalid_argument);
  }
  {
    util::Rng w(1);
    EXPECT_THROW(sim::World(channel::Testbed{}, {{0}, {2}, {1}}, {0, 1, 2}, w),
                 std::invalid_argument);
  }

  // Powers of two too small for the 52 used subcarriers: at 32 bins the
  // negative-k subcarriers alias onto positive-k ones, at 16 the bin
  // mapping (fft_size - |k|) wraps around.
  for (std::size_t small : {16u, 32u}) {
    sim::WorldConfig fft_small;
    fft_small.fft_size = small;
    util::Rng w(1);
    EXPECT_THROW(sim::make_world(topo, w, fft_small), std::invalid_argument)
        << "fft_size " << small;
  }
}

}  // namespace
}  // namespace nplus
