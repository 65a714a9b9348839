// Robustness tests for the §4 "Practical System Issues": carrier frequency
// offset (pilot phase tracking), timing offsets within the cyclic prefix
// (the paper's synchronization budget), CP scaling, phase noise, and
// decode-under-interference sweeps across every MCS.
#include <gtest/gtest.h>

#include "channel/mimo_channel.h"
#include "channel/scene.h"
#include "dsp/signal.h"
#include "phy/esnr.h"
#include "phy/frame.h"
#include "phy/transceiver.h"
#include "util/rng.h"
#include "util/units.h"

namespace nplus::phy {
namespace {

using channel::MimoChannel;
using channel::Scene;
using channel::TxImpairments;

std::vector<std::uint8_t> random_payload(std::size_t n, util::Rng& rng) {
  std::vector<std::uint8_t> p(n);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.uniform_int(256u));
  return p;
}

// Builds a 1x1 scene with the given impairments and tries to decode.
bool decode_with_impairments(const TxImpairments& imp, const Mcs& mcs,
                             util::Rng& rng, double noise = 1e-4) {
  channel::ChannelProfile profile;
  MimoChannel ch(1, 1, 1.0, profile, rng);
  const auto payload = random_payload(300, rng);
  const TxFrame frame = build_tx_frame_bytes(
      {payload}, mcs, PrecodingPlan::direct(1, 1));

  Scene scene(noise, rng);
  const std::size_t node = scene.add_node(1);
  const std::size_t t = scene.add_transmission(frame.antennas, 0, imp);
  scene.set_channel(t, node, std::move(ch));
  const auto rx = scene.render(node, frame.total_len() + 32);

  const auto res = decode_frame(rx, imp.timing_offset, {payload.size()},
                                mcs, 1, {0}, no_interference(1), noise);
  return res.payloads[0].has_value() && *res.payloads[0] == payload;
}

TEST(Robustness, SmallCfoToleratedByPilotTracking) {
  // Residual CFO after §4 precompensation: a slow common phase rotation
  // the per-symbol pilot correction must absorb. 50 Hz at 10 MS/s.
  util::Rng rng(1);
  TxImpairments imp;
  imp.cfo_norm = 5e-6;
  EXPECT_TRUE(decode_with_impairments(imp, mcs_by_index(2), rng));
}

TEST(Robustness, LargeCfoBreaksWithoutCompensation) {
  // An uncompensated 802.11-scale CFO (tens of kHz) destroys orthogonality
  // — this is exactly why §4 requires joiners to precompensate toward the
  // first winner.
  util::Rng rng(2);
  TxImpairments imp;
  imp.cfo_norm = 8e-3;  // ~80 kHz at 10 MS/s: half a subcarrier spacing
  EXPECT_FALSE(decode_with_impairments(imp, mcs_by_index(4), rng));
}

TEST(Robustness, PhaseNoiseTolerated) {
  util::Rng rng(3);
  TxImpairments imp;
  imp.phase_noise_std = 2e-3;  // rad/sample random walk
  EXPECT_TRUE(decode_with_impairments(imp, mcs_by_index(2), rng));
}

class McsRobustness : public ::testing::TestWithParam<int> {};

TEST_P(McsRobustness, DecodesAtSnrAboveThreshold) {
  util::Rng rng(10 + GetParam());
  const Mcs& mcs = mcs_by_index(GetParam());
  // 6 dB above the selection threshold: delivery must be reliable.
  const double noise = util::from_db(-(mcs.min_esnr_db + 6.0));
  TxImpairments imp;
  int ok = 0;
  for (int trial = 0; trial < 5; ++trial) {
    ok += decode_with_impairments(imp, mcs, rng, noise);
  }
  EXPECT_GE(ok, 4) << mcs.name();
}

INSTANTIATE_TEST_SUITE_P(AllMcs, McsRobustness,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7));

TEST(Robustness, JoinerTimingOffsetWithinCpTolerated) {
  // §4 Time Synchronization: a joiner misaligned by less than the cyclic
  // prefix appears at the receiver as an extra per-subcarrier phase ramp —
  // the channel estimate absorbs it, and decoding still works.
  util::Rng rng(4);
  channel::ChannelProfile profile;
  MimoChannel ch_want(2, 1, 1.0, profile, rng);
  MimoChannel ch_intf(2, 1, 1.0, profile, rng);

  const auto pay_want = random_payload(200, rng);
  const auto pay_intf = random_payload(600, rng);
  const Mcs& mcs = mcs_by_index(2);
  const TxFrame f_want = build_tx_frame_bytes(
      {pay_want}, mcs, PrecodingPlan::direct(1, 1));
  const TxFrame f_intf = build_tx_frame_bytes(
      {pay_intf}, mcs, PrecodingPlan::direct(1, 1));

  const double noise = 1e-4;
  // The joiner starts a whole number of symbols after the occupant, PLUS a
  // sub-CP misalignment of 6 samples (CP is 16 minus channel spread).
  const std::size_t sym_aligned = f_intf.data_offset() + 5 * 80;
  const std::size_t jitter = 6;

  Scene scene(noise, rng);
  const std::size_t node = scene.add_node(2);
  const std::size_t t1 = scene.add_transmission(f_intf.antennas, 0);
  TxImpairments imp;
  imp.timing_offset = jitter;
  const std::size_t t2 =
      scene.add_transmission(f_want.antennas, sym_aligned, imp);
  scene.set_channel(t1, node, std::move(ch_intf));
  scene.set_channel(t2, node, std::move(ch_want));
  const auto rx = scene.render(
      node, sym_aligned + jitter + f_want.total_len() + 32);

  // The receiver synchronizes to the joiner's actual start; the occupant's
  // interference (estimated from its clean preamble at the occupant's own
  // alignment) is projected out at the joiner's alignment: valid because
  // the offset keeps every path within the CP.
  const EffectiveChannels intf_est = estimate_effective_channels(rx, 0, 1);
  const InterferenceMap interference =
      stack_interference(no_interference(2), intf_est);
  const auto res =
      decode_frame(rx, sym_aligned + jitter, {pay_want.size()}, mcs, 1, {0},
                   interference, noise);
  ASSERT_TRUE(res.payloads[0].has_value());
  EXPECT_EQ(*res.payloads[0], pay_want);
}

TEST(Robustness, CpScalingDecodes) {
  // §4: both FFT and CP scaled by the same factor for distributed timing
  // slack; the pipeline must work unchanged.
  util::Rng rng(5);
  OfdmParams params;
  params.cp_scale = 2;
  EXPECT_EQ(params.symbol_len(), 160u);

  phy::Bits bits(96 * 2);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(2u));
  const auto syms = map_bits(bits, Modulation::kQpsk);
  const TxFrame frame =
      build_tx_frame({syms}, PrecodingPlan::direct(1, 1), params);

  // Ideal channel: direct loopback plus light noise.
  auto rx = frame.antennas;
  for (auto& v : rx[0]) v += rng.cgaussian(1e-6);
  const auto snr =
      measure_stream_snr(rx, 0, syms, 1, 0, no_interference(1), params);
  double mean = 0.0;
  for (double s : snr) mean += s / static_cast<double>(snr.size());
  EXPECT_GT(util::to_db(mean), 30.0);
}

TEST(Robustness, InterferencePowerSweepDegradesGracefully) {
  // Sweep the interferer's power: the post-projection SNR of the wanted
  // stream must stay roughly flat (projection removes it), while the
  // unprojected SNR collapses.
  util::Rng rng(6);
  channel::ChannelProfile profile;
  MimoChannel ch_want(2, 1, 1.0, profile, rng);
  MimoChannel ch_intf_base(2, 1, 1.0, profile, rng);

  phy::Bits bits(96 * 4);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(2u));
  const auto syms = map_bits(bits, Modulation::kQpsk);
  const TxFrame f_want =
      build_tx_frame({syms}, PrecodingPlan::direct(1, 1));
  const auto intf_syms = map_bits(bits, Modulation::kQpsk);
  const TxFrame f_intf =
      build_tx_frame({intf_syms}, PrecodingPlan::direct(1, 1));

  double prev_proj_db = -1e9;
  for (double intf_gain : {0.1, 1.0, 10.0}) {
    util::Rng trial_rng = rng.fork(static_cast<std::uint64_t>(
        intf_gain * 100));
    // Scale the interferer's taps.
    auto taps = ch_intf_base.taps();
    for (auto& row : taps) {
      for (auto& pair : row) {
        for (auto& tap : pair) tap *= std::sqrt(intf_gain);
      }
    }
    MimoChannel ch_intf(taps);
    MimoChannel ch_want_copy(ch_want.taps());

    Scene scene(1e-4, trial_rng);
    const std::size_t node = scene.add_node(2);
    const std::size_t t1 = scene.add_transmission(f_intf.antennas, 0);
    const std::size_t t2 = scene.add_transmission(
        f_want.antennas, f_intf.data_offset());
    scene.set_channel(t1, node, std::move(ch_intf));
    scene.set_channel(t2, node, std::move(ch_want_copy));
    const auto rx =
        scene.render(node, f_intf.data_offset() + f_want.total_len() + 16);

    const EffectiveChannels est = estimate_effective_channels(rx, 0, 1);
    const auto snr = measure_stream_snr(
        rx, f_intf.data_offset(), syms, 1, 0,
        stack_interference(no_interference(2), est));
    double mean = 0.0;
    for (double s : snr) mean += s / static_cast<double>(snr.size());
    const double proj_db = util::to_db(mean);
    // Projection keeps the wanted stream alive at every interference level.
    EXPECT_GT(proj_db, 15.0) << "interferer gain " << intf_gain;
    // And the degradation from 10x more interference is modest.
    EXPECT_GT(proj_db, prev_proj_db - 12.0);
    prev_proj_db = proj_db;
  }
}

}  // namespace
}  // namespace nplus::phy

// ---------------------------------------------------------------------------
// Harness resilience: supervised sweeps, checkpoint/resume, watchdog
// timeouts, failure quarantine, and runtime invariant audits (PR 7). These
// live beside the PHY robustness suite because they answer the same
// question one layer up: does the system keep producing trustworthy output
// when parts of it misbehave?
// ---------------------------------------------------------------------------

#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>

#include <limits>
#include <optional>
#include <stdexcept>

#include "sim/audit.h"
#include "sim/checkpoint_runner.h"
#include "sim/scenario_gen.h"
#include "sim/scenarios.h"
#include "util/checkpoint.h"
#include "util/supervisor.h"
#include "util/trace.h"

namespace nplus::sim {
namespace {

SweepItem small_item(std::size_t n_links = 3, std::size_t rounds = 10) {
  SweepItem item;
  item.gen.n_links = n_links;
  item.session.n_rounds = rounds;
  item.session.snapshot_every = 5;
  return item;
}

std::vector<std::uint8_t> result_bytes(
    const std::vector<SessionResult>& results) {
  util::ByteWriter w;
  for (const auto& r : results) serialize_session_result(r, w);
  return w.take();
}

// A static session of `scenario` placed on the testbed under `scheme`.
SweepItem testbed_item(const Scenario& scenario,
                       Scheme scheme = Scheme::kNplus) {
  SweepItem item = small_item();
  item.on_testbed = scenario;
  item.session.round = RoundConfig{};
  item.session.scheme = scheme;
  return item;
}

// The reference the sweep executor must reproduce: a serial loop over the
// documented fork structure (item i takes Rng(seed).fork(i + 1), then
// topology/world/session forks 1/2/3 of it). A testbed item draws its
// placement from fork 1 and its world from fork 2, redrawn until every
// link clears the SNR floor (at most kMaxPlacementDraws times).
std::vector<SessionResult> reference_sweep(
    const std::vector<SweepItem>& items, std::uint64_t seed) {
  const channel::Testbed office;
  util::Rng master(seed);
  std::vector<SessionResult> out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    util::Rng rng = master.fork(i + 1);
    util::Rng gen_rng = rng.fork(1);
    util::Rng world_rng = rng.fork(2);
    util::Rng session_rng = rng.fork(3);
    if (const std::optional<Scenario>& sc = items[i].on_testbed) {
      std::optional<World> world;
      for (int draw = 0; draw < kMaxPlacementDraws; ++draw) {
        const std::vector<std::size_t> locations =
            office.random_placement(sc->nodes.size(), gen_rng);
        world.emplace(office, sc->nodes, locations, world_rng,
                      items[i].world, node_roles(*sc));
        bool alive = true;
        for (const Link& l : sc->links) {
          alive = alive &&
                  world->link_snr_db(l.tx_node, l.rx_node) >= kMinLinkSnrDb;
        }
        if (alive) break;
      }
      out.push_back(run_session(*world, *sc, session_rng, items[i].session));
      continue;
    }
    const GeneratedTopology topo = generate_topology(items[i].gen, gen_rng);
    World world = make_world(topo, world_rng, items[i].world);
    out.push_back(
        run_session(world, topo.scenario, session_rng, items[i].session));
  }
  return out;
}

// Scoped temp file under the ctest working directory.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name) : path(name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

TEST(Supervisor, QuarantinesFailingItemAndCompletesRest) {
  std::vector<int> done(8, 0);
  util::SupervisorConfig cfg;
  cfg.n_threads = 2;
  const util::FailureReport report = util::Supervisor(cfg).run(
      8, [&](std::size_t i, util::CancelToken&) {
        if (i == 3) throw std::runtime_error("item 3 exploded");
        done[i] = 1;
      });
  EXPECT_FALSE(report.all_ok());
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].index, 3u);
  EXPECT_EQ(report.failures[0].kind, util::FailureKind::kException);
  EXPECT_NE(report.failures[0].what.find("exploded"), std::string::npos);
  // A bare Supervisor knows no streams; the runner names them.
  EXPECT_TRUE(report.failures[0].stream.empty());
  for (std::size_t i = 0; i < done.size(); ++i) {
    EXPECT_EQ(done[i], i == 3 ? 0 : 1) << i;
  }
  EXPECT_NE(report.summary().find("item 3"), std::string::npos);
}

TEST(Supervisor, WatchdogCancelsOverBudgetItem) {
  util::SupervisorConfig cfg;
  cfg.n_threads = 2;
  cfg.watchdog_s = 0.05;
  std::vector<int> done(3, 0);
  const util::FailureReport report = util::Supervisor(cfg).run(
      3, [&](std::size_t i, util::CancelToken& token) {
        if (i != 1) {
          done[i] = 1;
          return;
        }
        // A "hung" body that honours the polling contract: it only ends
        // when the watchdog fires (bounded by the deadline below so a
        // broken watchdog fails the test instead of wedging the suite).
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!token.cancelled()) {
          ASSERT_LT(std::chrono::steady_clock::now(), deadline)
              << "watchdog never fired";
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        throw util::TimeoutError("cancelled");
      });
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].index, 1u);
  EXPECT_EQ(report.failures[0].kind, util::FailureKind::kTimeout);
  EXPECT_EQ(done, (std::vector<int>{1, 0, 1}));
}

TEST(Supervisor, CancelledSessionThrowsTimeout) {
  // The cooperative hook end-to-end: a pre-fired token makes run_session
  // unwind at the first round boundary.
  util::Rng rng(5);
  util::Rng gen_rng = rng.fork(1);
  util::Rng world_rng = rng.fork(2);
  util::Rng session_rng = rng.fork(3);
  const GeneratedTopology topo = generate_topology(small_item().gen, gen_rng);
  World world = make_world(topo, world_rng);
  SessionConfig cfg = small_item().session;
  util::CancelToken token;
  token.cancel();
  cfg.cancel = &token;
  EXPECT_THROW(run_session(world, topo.scenario, session_rng, cfg),
               util::TimeoutError);
}

TEST(Audit, RealSessionPassesCleanly) {
  util::Rng rng(11);
  util::Rng gen_rng = rng.fork(1);
  util::Rng world_rng = rng.fork(2);
  util::Rng session_rng = rng.fork(3);
  const SweepItem item = small_item(3, 20);
  const GeneratedTopology topo = generate_topology(item.gen, gen_rng);
  World world = make_world(topo, world_rng);
  const SessionResult result =
      run_session(world, topo.scenario, session_rng, item.session);
  const AuditContext ctx = make_audit_context(topo.scenario, item.session);
  EXPECT_TRUE(audit_session(result, ctx).empty());
  EXPECT_NO_THROW(audit_session_or_throw(result, ctx));
}

TEST(Audit, ZeroRoundSessionPassesCleanly) {
  // A zero-round session reports a zero rate for every link in both the
  // throughput and the goodput vector, and passes the audit.
  util::Rng rng(11);
  util::Rng gen_rng = rng.fork(1);
  util::Rng world_rng = rng.fork(2);
  util::Rng session_rng = rng.fork(3);
  const SweepItem item = small_item(3, 0);
  const GeneratedTopology topo = generate_topology(item.gen, gen_rng);
  World world = make_world(topo, world_rng);
  const SessionResult result =
      run_session(world, topo.scenario, session_rng, item.session);
  EXPECT_EQ(result.rounds, 0u);
  EXPECT_EQ(result.per_link_mbps, std::vector<double>(3, 0.0));
  EXPECT_EQ(result.per_link_goodput_mbps, std::vector<double>(3, 0.0));
  const AuditContext ctx = make_audit_context(topo.scenario, item.session);
  EXPECT_TRUE(audit_session(result, ctx).empty());
}

TEST(Audit, CatchesSeededViolations) {
  util::Rng rng(11);
  util::Rng gen_rng = rng.fork(1);
  util::Rng world_rng = rng.fork(2);
  util::Rng session_rng = rng.fork(3);
  const SweepItem item = small_item(3, 20);
  const GeneratedTopology topo = generate_topology(item.gen, gen_rng);
  World world = make_world(topo, world_rng);
  const SessionResult clean =
      run_session(world, topo.scenario, session_rng, item.session);
  const AuditContext ctx = make_audit_context(topo.scenario, item.session);

  {
    SessionResult r = clean;  // throughput above the PHY ceiling
    r.total_mbps = 1e9;
    EXPECT_FALSE(audit_session(r, ctx).empty());
  }
  {
    SessionResult r = clean;  // NaN percolated into a published scalar
    r.duration_s = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(audit_session(r, ctx).empty());
  }
  {
    SessionResult r = clean;  // Jain outside (0, 1]
    r.jain = 1.5;
    EXPECT_FALSE(audit_session(r, ctx).empty());
  }
  {
    SessionResult r = clean;  // goodput cannot exceed throughput
    r.goodput_mbps = r.total_mbps * 2.0 + 1.0;
    EXPECT_FALSE(audit_session(r, ctx).empty());
  }
  {
    SessionResult r = clean;  // negative per-link rate
    if (!r.per_link_mbps.empty()) {
      r.per_link_mbps[0] = -1.0;
      EXPECT_FALSE(audit_session(r, ctx).empty());
    }
  }
  {
    SessionResult r = clean;  // goodput vector shorter than the link list
    r.per_link_goodput_mbps.pop_back();
    EXPECT_FALSE(audit_session(r, ctx).empty());
  }
  {
    SessionResult r = clean;  // busy airtime above the elapsed clock
    r.duration_s = r.round_duration.mean() *
                       static_cast<double>(r.round_duration.count()) * 0.5;
    EXPECT_FALSE(audit_session(r, ctx).empty());
    EXPECT_THROW(audit_session_or_throw(r, ctx), util::InvariantError);
  }
  {
    SessionResult r = clean;  // elapsed clock above busy + accountable idle
    r.duration_s = 3.0 * r.round_duration.mean() *
                       static_cast<double>(r.round_duration.count()) +
                   1.0;
    EXPECT_FALSE(audit_session(r, ctx).empty());
    EXPECT_THROW(audit_session_or_throw(r, ctx), util::InvariantError);
  }
}

TEST(CheckpointRunner, FreshRunMatchesReferenceLoop) {
  std::vector<SweepItem> items(4, small_item());
  items.push_back(testbed_item(three_pair_scenario()));
  items.push_back(testbed_item(ap_scenario(), Scheme::kBeamforming));
  const std::uint64_t seed = 21;
  const std::vector<SessionResult> expected = reference_sweep(items, seed);
  RunnerConfig cfg;
  cfg.supervisor.n_threads = 2;
  CheckpointedRunner runner(items, seed, cfg);
  const SweepOutcome outcome = runner.run();
  EXPECT_TRUE(outcome.complete());
  EXPECT_TRUE(outcome.report.all_ok());
  EXPECT_EQ(outcome.resumed, 0u);
  ASSERT_EQ(outcome.results.size(), expected.size());
  EXPECT_EQ(result_bytes(outcome.results), result_bytes(expected));
}

TEST(CheckpointRunner, KillAtCheckpointThenResumeIsByteIdentical) {
  const std::vector<SweepItem> items(6, small_item());
  const std::uint64_t seed = 33;
  const std::vector<SessionResult> uninterrupted =
      reference_sweep(items, seed);
  const std::vector<std::uint8_t> expected = result_bytes(uninterrupted);

  for (const std::size_t threads : {1u, 2u, 4u}) {
    TempFile ckpt("test_ckpt_resume_" + std::to_string(threads) + ".bin");
    // Phase 1: die (gracefully, in-process) after 2 fresh completions.
    {
      RunnerConfig cfg;
      cfg.supervisor.n_threads = threads;
      cfg.checkpoint_path = ckpt.path;
      cfg.checkpoint_every = 1;
      cfg.halt_after = 2;
      CheckpointedRunner runner(items, seed, cfg);
      const SweepOutcome partial = runner.run();
      EXPECT_FALSE(partial.complete());
      EXPECT_TRUE(partial.report.all_ok());
    }
    // Phase 2: resume from the checkpoint and finish.
    RunnerConfig cfg;
    cfg.supervisor.n_threads = threads;
    cfg.checkpoint_path = ckpt.path;
    cfg.resume = true;
    CheckpointedRunner runner(items, seed, cfg);
    const SweepOutcome outcome = runner.run();
    EXPECT_TRUE(outcome.complete()) << threads << " threads";
    EXPECT_GE(outcome.resumed, 2u);
    EXPECT_EQ(result_bytes(outcome.results), expected)
        << threads << " threads";
  }
}

// Halts a sweep after two fresh completions, then resumes it from the
// checkpoint; `trace` (may be null) is handed to the resumed run only.
SweepOutcome halt_then_resume(const std::vector<SweepItem>& items,
                              std::uint64_t seed, std::size_t threads,
                              const std::string& ckpt_path,
                              util::TraceCollector* trace) {
  {
    RunnerConfig cfg;
    cfg.supervisor.n_threads = threads;
    cfg.checkpoint_path = ckpt_path;
    cfg.checkpoint_every = 1;
    cfg.halt_after = 2;
    util::TraceCollector halted_trace(items.size(), 16);
    if (trace != nullptr) cfg.trace = &halted_trace;
    CheckpointedRunner(items, seed, cfg).run();
  }
  RunnerConfig cfg;
  cfg.supervisor.n_threads = threads;
  cfg.checkpoint_path = ckpt_path;
  cfg.resume = true;
  cfg.trace = trace;
  return CheckpointedRunner(items, seed, cfg).run();
}

TEST(CheckpointRunner, TracedResumeMergesTheUninterruptedTrace) {
  // Each checkpoint record carries its item's ring, so the resumed run's
  // merged trace (records and drop count) equals an uninterrupted run's.
  // The 16-record rings overflow, so dropped counts are restored too.
  const std::vector<SweepItem> items(5, small_item());
  const std::uint64_t seed = 44;
  util::TraceCollector whole(items.size(), 16);
  {
    RunnerConfig cfg;
    cfg.supervisor.n_threads = 2;
    cfg.trace = &whole;
    ASSERT_TRUE(CheckpointedRunner(items, seed, cfg).run().complete());
  }
  ASSERT_GT(whole.total_dropped(), 0u);
  for (const std::size_t threads : {1u, 4u}) {
    TempFile ckpt("test_ckpt_traced_" + std::to_string(threads) + ".bin");
    util::TraceCollector resumed(items.size(), 16);
    const SweepOutcome outcome =
        halt_then_resume(items, seed, threads, ckpt.path, &resumed);
    EXPECT_TRUE(outcome.complete());
    EXPECT_GE(outcome.resumed, 2u);
    EXPECT_EQ(resumed.merge(), whole.merge()) << threads << " threads";
    EXPECT_EQ(resumed.total_dropped(), whole.total_dropped());
  }
}

TEST(CheckpointRunner, UntracedCheckpointRefusesATracedResume) {
  const std::vector<SweepItem> items(3, small_item());
  TempFile ckpt("test_ckpt_untraced.bin");
  RunnerConfig cfg;
  cfg.supervisor.n_threads = 1;
  cfg.checkpoint_path = ckpt.path;
  cfg.halt_after = 1;
  CheckpointedRunner(items, 45, cfg).run();
  util::TraceCollector trace(items.size(), 16);
  cfg.halt_after = 0;
  cfg.resume = true;
  cfg.trace = &trace;
  EXPECT_THROW(CheckpointedRunner(items, 45, cfg).run(),
               util::CheckpointError);
}

TEST(CheckpointRunner, ItemsSharingAStreamReplayIdenticalSessions) {
  // Item i forks stream i unless it names another; a named stream is the
  // one that position would fork, even past the end of the sweep.
  std::vector<SweepItem> items(4, small_item());
  items[1].stream = 0;
  items[3].stream = 5;
  RunnerConfig cfg;
  cfg.supervisor.n_threads = 2;
  const SweepOutcome outcome = CheckpointedRunner(items, 46, cfg).run();
  ASSERT_TRUE(outcome.complete());
  const std::vector<SessionResult> own =
      reference_sweep(std::vector<SweepItem>(6, small_item()), 46);
  EXPECT_EQ(result_bytes({outcome.results[0]}), result_bytes({own[0]}));
  EXPECT_EQ(result_bytes({outcome.results[1]}), result_bytes({own[0]}));
  EXPECT_EQ(result_bytes({outcome.results[2]}), result_bytes({own[2]}));
  EXPECT_EQ(result_bytes({outcome.results[3]}), result_bytes({own[5]}));
  EXPECT_NE(result_bytes({own[0]}), result_bytes({own[2]}));
}

TEST(CheckpointRunner, PairedSweepResumesByteIdentically) {
  std::vector<SweepItem> generated(6, small_item());
  for (std::size_t i = 0; i < generated.size(); ++i) {
    generated[i].stream = i % 2;
    generated[i].session.n_rounds = 6 + i;  // points differ, worlds repeat
  }
  // Fig. 13's three-scheme comparison on three testbed placements.
  std::vector<SweepItem> placed = testbed_comparison(
      ap_scenario(), 3,
      {Scheme::kNplus, Scheme::kDot11n, Scheme::kBeamforming}, 6,
      RoundConfig{});
  for (std::vector<SweepItem>* items : {&generated, &placed}) {
    RunnerConfig cfg;
    cfg.supervisor.n_threads = 2;
    const SweepOutcome whole = CheckpointedRunner(*items, 47, cfg).run();
    ASSERT_TRUE(whole.complete()) << whole.report.summary();
    TempFile ckpt("test_ckpt_paired.bin");
    const SweepOutcome resumed =
        halt_then_resume(*items, 47, 4, ckpt.path, nullptr);
    EXPECT_TRUE(resumed.complete());
    EXPECT_GE(resumed.resumed, 2u);
    EXPECT_EQ(result_bytes(resumed.results), result_bytes(whole.results));
  }
}

TEST(CheckpointRunner, QuarantinedItemYieldsPartialResults) {
  std::vector<SweepItem> items(4, small_item());
  items[2].gen.n_links = 0;  // generate_topology rejects this loudly
  RunnerConfig cfg;
  cfg.supervisor.n_threads = 2;
  CheckpointedRunner runner(items, 77, cfg);
  const SweepOutcome outcome = runner.run();
  EXPECT_FALSE(outcome.complete());
  ASSERT_EQ(outcome.report.failures.size(), 1u);
  EXPECT_EQ(outcome.report.failures[0].index, 2u);
  EXPECT_EQ(outcome.report.failures[0].kind, util::FailureKind::kException);
  ASSERT_EQ(outcome.completed.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(outcome.completed[i], i == 2 ? 0 : 1) << i;
    if (i != 2) {
      EXPECT_GT(outcome.results[i].rounds, 0u) << i;
    }
  }
}

TEST(CheckpointRunner, ChaosMutationIsCaughtByAudit) {
  const std::vector<SweepItem> items(3, small_item());
  RunnerConfig cfg;
  cfg.supervisor.n_threads = 2;
  cfg.chaos_mutate = [](std::size_t i, SessionResult& r) {
    if (i == 1) r.total_mbps = std::numeric_limits<double>::quiet_NaN();
  };
  CheckpointedRunner runner(items, 88, cfg);
  const SweepOutcome outcome = runner.run();
  ASSERT_EQ(outcome.report.failures.size(), 1u);
  EXPECT_EQ(outcome.report.failures[0].index, 1u);
  EXPECT_EQ(outcome.report.failures[0].kind, util::FailureKind::kInvariant);
  EXPECT_NE(outcome.report.failures[0].what.find("total_mbps"),
            std::string::npos);
}

TEST(CheckpointRunner, QuarantineNamesTheItemsOwnStream) {
  // Paired sweep: item i draws stream i % 2, so item 3 replays stream 1,
  // the master's fork(2), not the fork(4) its index would suggest.
  std::vector<SweepItem> items(4, small_item());
  for (std::size_t i = 0; i < items.size(); ++i) items[i].stream = i % 2;
  RunnerConfig cfg;
  cfg.supervisor.n_threads = 2;
  cfg.chaos_mutate = [](std::size_t i, SessionResult& r) {
    if (i == 3) r.total_mbps = std::numeric_limits<double>::quiet_NaN();
  };
  const SweepOutcome outcome = CheckpointedRunner(items, 90, cfg).run();
  ASSERT_EQ(outcome.report.failures.size(), 1u);
  EXPECT_EQ(outcome.report.failures[0].index, 3u);
  EXPECT_EQ(outcome.report.failures[0].stream, "fork(2) of seed 90");
  EXPECT_NE(outcome.report.summary().find("stream fork(2) of seed 90"),
            std::string::npos);
}

TEST(CheckpointRunner, CorruptCheckpointIsRejected) {
  const std::vector<SweepItem> items(3, small_item());
  TempFile ckpt("test_ckpt_corrupt.bin");
  {
    RunnerConfig cfg;
    cfg.supervisor.n_threads = 1;
    cfg.checkpoint_path = ckpt.path;
    cfg.checkpoint_every = 1;
    cfg.halt_after = 1;
    CheckpointedRunner runner(items, 55, cfg);
    runner.run();
  }
  // Flip one payload byte: the CRC check must refuse the file.
  {
    std::fstream f(ckpt.path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(24, std::ios::beg);
    char b = 0;
    f.seekg(24, std::ios::beg);
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x5a);
    f.seekp(24, std::ios::beg);
    f.write(&b, 1);
  }
  RunnerConfig cfg;
  cfg.supervisor.n_threads = 1;
  cfg.checkpoint_path = ckpt.path;
  cfg.resume = true;
  CheckpointedRunner runner(items, 55, cfg);
  EXPECT_THROW(runner.run(), util::CheckpointError);
}

TEST(CheckpointRunner, MismatchedSweepIsRejected) {
  const std::vector<SweepItem> items(3, small_item());
  TempFile ckpt("test_ckpt_mismatch.bin");
  {
    RunnerConfig cfg;
    cfg.supervisor.n_threads = 1;
    cfg.checkpoint_path = ckpt.path;
    CheckpointedRunner runner(items, 55, cfg);
    runner.run();
  }
  // Same file, different seed: the identity header must not match.
  RunnerConfig cfg;
  cfg.supervisor.n_threads = 1;
  cfg.checkpoint_path = ckpt.path;
  cfg.resume = true;
  CheckpointedRunner runner(items, 56, cfg);
  EXPECT_THROW(runner.run(), util::CheckpointError);
}

TEST(CheckpointRunner, ZeroCheckpointCadenceIsRejected) {
  // A cadence of 0 has no meaning; the runner refuses it rather than
  // quietly writing after every item.
  const std::vector<SweepItem> items(1, small_item());
  RunnerConfig cfg;
  cfg.supervisor.n_threads = 1;
  cfg.checkpoint_every = 0;
  EXPECT_THROW(CheckpointedRunner runner(items, 3, cfg),
               std::invalid_argument);
}

}  // namespace
}  // namespace nplus::sim
