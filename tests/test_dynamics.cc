// Dynamic-network engine tests: Doppler-matched channel evolution,
// mobility models, World::advance / refresh_csi, churned sessions, the
// AARF rate controller, and the determinism contracts the engine must keep
// (bit-identical traces across thread counts; dynamics-off == the exact
// pre-dynamics code path that the golden fixtures pin).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "channel/evolution.h"
#include "channel/mimo_channel.h"
#include "phy/rate_control.h"
#include "sim/checkpoint_runner.h"
#include "sim/mobility.h"
#include "sim/scenario_gen.h"
#include "sim/session.h"
#include "util/rng.h"

namespace nplus {
namespace {

using linalg::CMat;

// --- channel/evolution.h math -------------------------------------------

TEST(Evolution, DopplerRhoMapping) {
  // Static or instantaneous: full correlation, by definition.
  EXPECT_EQ(channel::doppler_rho(0.0, 0.01), 1.0);
  EXPECT_EQ(channel::doppler_rho(10.0, 0.0), 1.0);
  // v = 1 m/s at 2.4 GHz -> f_d = 8.0 Hz.
  EXPECT_NEAR(channel::doppler_hz(1.0, 2.4e9), 8.005, 0.01);
  // rho = J0(2 pi fd dt): check a table value (J0(1) = 0.7651976866).
  const double fd = 1.0 / (2.0 * std::numbers::pi);
  EXPECT_NEAR(channel::doppler_rho(fd, 1.0), 0.7651976866, 1e-6);
  // Monotone decreasing up to the first Bessel zero, then clamped at 0.
  double prev = 1.0;
  for (double dt = 0.01; dt < 0.38; dt += 0.01) {
    const double rho = channel::doppler_rho(1.0, dt);
    EXPECT_LE(rho, prev);
    prev = rho;
  }
  EXPECT_EQ(channel::doppler_rho(100.0, 1.0), 0.0);  // way past first zero
}

TEST(Evolution, ShadowRho) {
  EXPECT_EQ(channel::shadow_rho(0.0, 10.0), 1.0);
  EXPECT_NEAR(channel::shadow_rho(10.0, 10.0), std::exp(-1.0), 1e-12);
  EXPECT_LT(channel::shadow_rho(50.0, 10.0), 0.01);
}

// --- MimoChannel::evolve -------------------------------------------------

TEST(Evolution, EvolveRhoOneIsNoopAndDrawFree) {
  util::Rng rng(7);
  channel::MimoChannel ch(2, 2, 1.0, {}, rng);
  const auto before = ch.taps();
  util::Rng probe = rng.duplicate();  // copies the stream state
  ch.evolve(1.0, rng);
  EXPECT_EQ(ch.taps(), before);
  EXPECT_EQ(rng.uniform(), probe.uniform());  // no draws consumed
}

TEST(Evolution, EvolvePreservesMarginalPowerAndMatchesRho) {
  // AR(1) with Jakes-matched rho: the lag-1 autocorrelation of a scattered
  // tap must equal rho, and the marginal power must stay at the tap's
  // configured power (stationarity) — this is the coherence-time check:
  // a channel evolved at doppler_rho(fd, dt) decorrelates on the 1/fd
  // timescale the config asked for.
  util::Rng rng(21);
  channel::MimoChannel ch(1, 1, 1.0, {}, rng);
  const double rho = channel::doppler_rho(20.0, 0.004);  // ~0.9
  ASSERT_GT(rho, 0.8);
  ASSERT_LT(rho, 1.0);

  const std::size_t kSteps = 40000;
  std::vector<std::complex<double>> x;
  x.reserve(kSteps);
  for (std::size_t i = 0; i < kSteps; ++i) {
    x.push_back(ch.taps()[0][0][0]);
    ch.evolve(rho, rng);
  }
  double p = 0.0;
  std::complex<double> lag1{0.0, 0.0};
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    p += std::norm(x[i]);
    lag1 += x[i] * std::conj(x[i + 1]);
  }
  const double mean_p = p / static_cast<double>(x.size() - 1);
  const double autocorr = (lag1 / p).real();
  // Tap 0 of the 3-tap 6 dB-decay profile carries ~0.748 of unit power.
  EXPECT_NEAR(mean_p, 0.748, 0.06);
  EXPECT_NEAR(autocorr, rho, 0.02);
}

TEST(Evolution, EvolveKeepsLosComponentFixed) {
  util::Rng rng(5);
  channel::ChannelProfile profile;
  profile.line_of_sight = true;
  profile.rician_k_db = 12.0;  // strongly deterministic first tap
  channel::MimoChannel ch(1, 1, 1.0, profile, rng);
  // Full decorrelation every step: the scattered part is redrawn, so the
  // time average of tap 0 converges to the fixed LoS component.
  std::complex<double> acc{0.0, 0.0};
  const std::size_t kSteps = 8000;
  for (std::size_t i = 0; i < kSteps; ++i) {
    ch.evolve(0.0, rng);
    acc += ch.taps()[0][0][0];
  }
  acc /= static_cast<double>(kSteps);
  // |LoS|^2 = p0 * K/(K+1): magnitude ~ sqrt(0.748 * 0.941) ~ 0.84.
  EXPECT_NEAR(std::abs(acc), 0.84, 0.08);
}

TEST(Evolution, ScaleGainScalesMeanPower) {
  util::Rng rng(11);
  channel::MimoChannel ch(2, 3, 2.0, {}, rng);
  const double before = ch.mean_gain();
  ch.scale_gain(0.25);
  EXPECT_NEAR(ch.mean_gain(), before * 0.25, 1e-12);
}

// --- Mobility ------------------------------------------------------------

std::vector<channel::Location> square_positions() {
  return {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}, {5.0, 5.0}};
}

TEST(Mobility, StaticModelIsDrawFreeNoop) {
  util::Rng rng(3);
  util::Rng probe = rng.duplicate();
  sim::Mobility mob(square_positions(), {}, rng);
  mob.advance(1.0, rng);
  EXPECT_EQ(rng.uniform(), probe.uniform());
  EXPECT_EQ(mob.positions()[3].x_m, 5.0);
  EXPECT_EQ(mob.speed_mps()[0], 0.0);
}

TEST(Mobility, RandomWaypointStaysInBoundsAndMoves) {
  sim::MobilityConfig cfg;
  cfg.model = sim::MobilityModel::kRandomWaypoint;
  cfg.speed_min_mps = 1.0;
  cfg.speed_max_mps = 2.0;
  cfg.pause_s = 0.5;
  cfg.area_margin_m = 2.0;
  util::Rng rng(17);
  sim::Mobility mob(square_positions(), cfg, rng);
  double total_moved = 0.0;
  for (int step = 0; step < 200; ++step) {
    mob.advance(0.1, rng);
    for (std::size_t i = 0; i < mob.n_nodes(); ++i) {
      const auto& p = mob.positions()[i];
      EXPECT_GE(p.x_m, -2.0 - 1e-9);
      EXPECT_LE(p.x_m, 12.0 + 1e-9);
      EXPECT_GE(p.y_m, -2.0 - 1e-9);
      EXPECT_LE(p.y_m, 12.0 + 1e-9);
      // Realized speed never exceeds the nominal leg-speed ceiling.
      EXPECT_LE(mob.speed_mps()[i], cfg.speed_max_mps + 1e-9);
      total_moved += mob.speed_mps()[i] * 0.1;
    }
  }
  EXPECT_GT(total_moved, 10.0);  // 4 pedestrians over 20 s went somewhere
}

TEST(Mobility, TrajectoriesAreDeterministic) {
  sim::MobilityConfig cfg;
  cfg.model = sim::MobilityModel::kRandomWaypoint;
  util::Rng r1(9), r2(9);
  sim::Mobility a(square_positions(), cfg, r1);
  sim::Mobility b(square_positions(), cfg, r2);
  for (int step = 0; step < 50; ++step) {
    a.advance(0.2, r1);
    b.advance(0.2, r2);
    for (std::size_t i = 0; i < a.n_nodes(); ++i) {
      EXPECT_EQ(a.positions()[i].x_m, b.positions()[i].x_m);
      EXPECT_EQ(a.positions()[i].y_m, b.positions()[i].y_m);
      EXPECT_EQ(a.speed_mps()[i], b.speed_mps()[i]);
    }
  }
}

TEST(Mobility, HotspotModelClustersAroundHotspots) {
  sim::MobilityConfig cfg;
  cfg.model = sim::MobilityModel::kClusteredHotspot;
  cfg.n_hotspots = 2;
  cfg.hotspot_std_m = 1.0;
  cfg.hotspot_dwell_s = 1e9;  // never re-home during the test
  cfg.pause_s = 0.0;
  cfg.area_w_m = 30.0;
  cfg.area_h_m = 18.0;
  util::Rng rng(31);
  std::vector<channel::Location> init;
  for (int i = 0; i < 8; ++i) init.push_back({15.0, 9.0});
  sim::Mobility mob(init, cfg, rng);
  // Let everyone walk to their home hotspot, then measure spread.
  for (int step = 0; step < 400; ++step) mob.advance(0.25, rng);
  // Hotspot centers are internal state; the observable is the population
  // itself: 8 nodes gathered around <= 2 spots have close nearest
  // neighbours, while uniform roaming over a 30 x 18 floor does not.
  double mean_dist = 0.0;
  for (std::size_t i = 0; i < mob.n_nodes(); ++i) {
    double best = 1e300;
    for (std::size_t j = 0; j < mob.n_nodes(); ++j) {
      if (i == j) continue;
      const double d = std::hypot(
          mob.positions()[i].x_m - mob.positions()[j].x_m,
          mob.positions()[i].y_m - mob.positions()[j].y_m);
      best = std::min(best, d);
    }
    mean_dist += best;
  }
  mean_dist /= static_cast<double>(mob.n_nodes());
  // 8 nodes gathered around <= 2 Gaussian (sigma 1 m) hotspots: nearest
  // neighbours are a couple of meters apart, not floor-scale apart.
  EXPECT_LT(mean_dist, 5.0);
}

// --- World::advance / refresh_csi ---------------------------------------

struct WorldFixture {
  sim::GeneratedTopology topo;
  sim::World world;
  std::vector<channel::Location> positions;
  std::vector<double> speeds;

  explicit WorldFixture(std::uint64_t seed, bool lazy = false)
      : topo(make()), world(build(topo, seed, lazy)) {
    for (std::size_t i = 0; i < topo.scenario.nodes.size(); ++i) {
      positions.push_back(world.node_position(i));
      speeds.push_back(0.0);
    }
  }
  static sim::GeneratedTopology make() {
    return sim::make_preset(sim::Preset::kThreePair);
  }
  static sim::World build(const sim::GeneratedTopology& topo,
                          std::uint64_t seed, bool lazy) {
    util::Rng rng(seed);
    sim::WorldConfig cfg;
    cfg.lazy_channels = lazy;
    return sim::make_world(topo, rng, cfg);
  }
};

TEST(WorldDynamics, StaticAdvanceIsExactNoop) {
  WorldFixture f(42);
  const CMat before = f.world.channel(0, 1, 7);
  const CMat belief_before = f.world.reciprocal_channel(0, 1, 7);
  const double snr_before = f.world.link_snr_db(0, 1);
  util::Rng dyn(5);
  util::Rng probe = dyn.duplicate();
  f.world.advance(f.positions, f.speeds, 0.05, {}, dyn);
  EXPECT_EQ(dyn.uniform(), probe.uniform());  // zero draws consumed
  const CMat after = f.world.channel(0, 1, 7);
  for (std::size_t r = 0; r < after.rows(); ++r) {
    for (std::size_t c = 0; c < after.cols(); ++c) {
      EXPECT_EQ(after(r, c), before(r, c));
      EXPECT_EQ(f.world.reciprocal_channel(0, 1, 7)(r, c),
                belief_before(r, c));
    }
  }
  EXPECT_EQ(f.world.link_snr_db(0, 1), snr_before);
}

TEST(WorldDynamics, MotionShiftsLinkSnr) {
  // Drag node 1 from 4 m to ~26 m away from node 0: the ~20 dB median
  // path-loss swing dwarfs the 4 dB shadowing innovation.
  WorldFixture f(42);
  const double snr_near = f.world.link_snr_db(0, 1);
  auto far = f.positions;
  far[1] = {f.positions[0].x_m + 26.0, f.positions[0].y_m};
  util::Rng dyn(5);
  f.world.advance(far, f.speeds, 1.0, {}, dyn);
  const double snr_far = f.world.link_snr_db(0, 1);
  EXPECT_LT(snr_far, snr_near - 8.0);
  EXPECT_EQ(f.world.node_position(1).x_m, far[1].x_m);
}

TEST(WorldDynamics, BeliefsGoStaleAndRefreshRecovers) {
  WorldFixture f(42);
  // Warm the belief cache, then decorrelate the channel completely.
  (void)f.world.reciprocal_channel(0, 1, 0);
  channel::EvolutionConfig evo;
  evo.env_doppler_hz = 500.0;  // rho ~ 0 at dt = 50 ms
  util::Rng dyn(5);
  for (int i = 0; i < 3; ++i) {
    f.world.advance(f.positions, f.speeds, 0.05, evo, dyn);
  }
  const auto rel_err = [&] {
    double num = 0.0, den = 0.0;
    for (std::size_t s = 0; s < sim::World::kSubcarriers; ++s) {
      const CMat h = f.world.channel(0, 1, s);
      const CMat b = f.world.reciprocal_channel(0, 1, s);
      for (std::size_t r = 0; r < h.rows(); ++r) {
        for (std::size_t c = 0; c < h.cols(); ++c) {
          num += std::norm(b(r, c) - h(r, c));
          den += std::norm(h(r, c));
        }
      }
    }
    return num / den;
  };
  const double stale = rel_err();
  f.world.refresh_csi(0, 1, dyn);
  const double fresh = rel_err();
  // A fully decorrelated belief is ~200% off in power; a re-measured one
  // only carries estimation + calibration noise (a few percent).
  EXPECT_GT(stale, 0.5);
  EXPECT_LT(fresh, 0.1);
  EXPECT_LT(fresh, stale / 5.0);
}

TEST(WorldDynamics, LazyWorldAdvanceIsDeterministicAndConsistent) {
  // Two identically seeded lazy worlds, same access + advance sequence:
  // identical observables. Also: a channel materialized AFTER motion must
  // realize (approximately — fading average vs budget) the link SNR the
  // world advertised for it.
  WorldFixture a(77, /*lazy=*/true), b(77, /*lazy=*/true);
  channel::EvolutionConfig evo;
  evo.env_doppler_hz = 30.0;
  util::Rng da(9), db(9);
  // Touch pair (0,1) now; leave (4,5) as SNR-only until after the moves.
  (void)a.world.channel(0, 1, 0);
  (void)b.world.channel(0, 1, 0);
  const double snr_a_pre = a.world.link_snr_db(4, 5);
  (void)b.world.link_snr_db(4, 5);

  auto moved = a.positions;
  moved[5] = {moved[5].x_m + 6.0, moved[5].y_m + 2.0};
  std::vector<double> speeds(a.speeds.size(), 0.0);
  speeds[5] = 1.4;
  a.world.advance(moved, speeds, 2.0, evo, da);
  b.world.advance(moved, speeds, 2.0, evo, db);

  EXPECT_EQ(a.world.link_snr_db(4, 5), b.world.link_snr_db(4, 5));
  for (std::size_t s = 0; s < 4; ++s) {
    const CMat ha = a.world.channel(0, 1, s);
    const CMat hb = b.world.channel(0, 1, s);
    for (std::size_t r = 0; r < ha.rows(); ++r) {
      for (std::size_t c = 0; c < ha.cols(); ++c) {
        EXPECT_EQ(ha(r, c), hb(r, c));
      }
    }
  }
  // The SNR drifted with the motion...
  EXPECT_NE(a.world.link_snr_db(4, 5), snr_a_pre);
  // ...and the late-materialized channel realizes it: mean channel power
  // over subcarriers/antennas vs the advertised budget, within fading
  // noise (the same check the lazy/eager SNR conventions allow).
  double p = 0.0;
  std::size_t cnt = 0;
  for (std::size_t s = 0; s < sim::World::kSubcarriers; ++s) {
    const CMat h = a.world.channel(4, 5, s);
    for (std::size_t r = 0; r < h.rows(); ++r) {
      for (std::size_t c = 0; c < h.cols(); ++c) {
        p += std::norm(h(r, c));
        ++cnt;
      }
    }
  }
  const double realized_db =
      10.0 * std::log10(p / static_cast<double>(cnt) /
                        a.world.noise_power());
  EXPECT_NEAR(realized_db, a.world.link_snr_db(4, 5), 6.0);

  // Access-order invariance across the advance: world c materializes pair
  // (4,5) through its CHANNEL pre-advance (a/b used the SNR read), so its
  // first SNR read happens post-advance — and must land on the same
  // advertised value, shadowing offset included (regression: the offset
  // used to be dropped on late SNR materialization).
  WorldFixture c(77, /*lazy=*/true);
  util::Rng dc(9);
  (void)c.world.channel(0, 1, 0);
  (void)c.world.channel(4, 5, 0);
  c.world.advance(moved, speeds, 2.0, evo, dc);
  EXPECT_NEAR(c.world.link_snr_db(4, 5), a.world.link_snr_db(4, 5), 1e-9);
}

bool same_bytes(const CMat& x, const CMat& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(),
                     x.rows() * x.cols() * sizeof(linalg::cdouble)) == 0;
}

class WorldDynamicsModes : public ::testing::TestWithParam<bool> {};

TEST_P(WorldDynamicsModes, PairsRederiveOnReadByteIdentically) {
  // advance() only marks a moved pair stale, in every mode; its matrices
  // (and an eager pair's fading-averaged link SNR) are re-derived from the
  // current taps when next read. World a reads every pair after every step
  // (re-deriving each time), world b reads nothing until the end. Both
  // refresh the same beliefs at the same steps, which reads the moved
  // reverse channel mid-run. Everything must agree byte for byte, and
  // advance must have drawn the same stream in both.
  //
  // Both worlds touch the same pairs before the first step: in a lazy
  // world a first read creates the pair's dynamics entry, which changes
  // what advance draws.
  const bool lazy = GetParam();
  WorldFixture a(31, lazy), b(31, lazy);
  const std::vector<std::size_t> txs = {0, 2, 4};
  const std::vector<std::size_t> rxs = {1, 3, 5};
  for (WorldFixture* f : {&a, &b}) {
    for (std::size_t t : txs) {
      for (std::size_t r : rxs) {
        (void)f->world.channel(t, r, 0);
        (void)f->world.reciprocal_channel(t, r, 0);
        (void)f->world.link_snr_db(t, r);
      }
    }
  }
  const auto read_all = [&](const sim::World& w) {
    for (std::size_t t : txs) {
      for (std::size_t r : rxs) {
        for (std::size_t s = 0; s < sim::World::kSubcarriers; ++s) {
          (void)w.channel(t, r, s);
          (void)w.channel(r, t, s);
        }
      }
    }
  };

  channel::EvolutionConfig evo;
  evo.env_doppler_hz = 5.0;
  std::vector<double> speeds(a.speeds.size(), 1.2);
  auto moved = a.positions;
  util::Rng da(17), db(17), ra(23), rb(23);
  for (int step = 0; step < 12; ++step) {
    for (std::size_t i = 0; i < moved.size(); ++i) {
      moved[i].x_m += 0.02 * static_cast<double>(i + 1);
      moved[i].y_m += (step % 2 == 0 ? 0.015 : -0.01);
    }
    a.world.advance(moved, speeds, 0.02, evo, da);
    b.world.advance(moved, speeds, 0.02, evo, db);
    read_all(a.world);
    if (step % 3 == 1) {
      a.world.refresh_csi(0, 1, ra);
      b.world.refresh_csi(0, 1, rb);
      a.world.refresh_csi(4, 3, ra);
      b.world.refresh_csi(4, 3, rb);
    }
  }

  for (std::size_t t : txs) {
    for (std::size_t r : rxs) {
      EXPECT_EQ(a.world.link_snr_db(t, r), b.world.link_snr_db(t, r));
      for (std::size_t s = 0; s < sim::World::kSubcarriers; ++s) {
        EXPECT_TRUE(same_bytes(a.world.channel(t, r, s),
                               b.world.channel(t, r, s)));
        EXPECT_TRUE(same_bytes(a.world.channel(r, t, s),
                               b.world.channel(r, t, s)));
        EXPECT_TRUE(same_bytes(a.world.reciprocal_channel(t, r, s),
                               b.world.reciprocal_channel(t, r, s)));
      }
    }
  }
  // The steps really moved the channels: the comparison is not vacuous.
  WorldFixture unmoved(31, lazy);
  EXPECT_FALSE(same_bytes(a.world.channel(0, 1, 0),
                          unmoved.world.channel(0, 1, 0)));
  EXPECT_NE(a.world.link_snr_db(0, 1), unmoved.world.link_snr_db(0, 1));
  const auto sa = da.save(), sb = db.save();
  EXPECT_EQ(sa.gen.state, sb.gen.state);
  EXPECT_EQ(sa.gen.inc, sb.gen.inc);
  EXPECT_EQ(sa.has_cached, sb.has_cached);
  EXPECT_EQ(ra.save().gen.state, rb.save().gen.state);
}

INSTANTIATE_TEST_SUITE_P(EagerAndLazy, WorldDynamicsModes, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& mode) {
                           return mode.param ? "Lazy" : "Eager";
                         });

// --- World reads ----------------------------------------------------------

enum class WorldMode { kEagerDense, kSparse, kLazy };

// The three-pair preset's world in `mode`: every pair (dense), tx-rx pairs
// only (sparse, the scenario engine's roles), or drawn on first read.
sim::World world_in_mode(const sim::GeneratedTopology& topo, WorldMode mode,
                         std::uint64_t seed) {
  util::Rng rng(seed);
  sim::WorldConfig cfg;
  cfg.lazy_channels = mode == WorldMode::kLazy;
  const std::vector<std::uint8_t> dense;
  return sim::World(topo.testbed, topo.scenario.nodes, topo.locations, rng,
                    cfg, mode == WorldMode::kEagerDense ? dense : topo.roles);
}

// Every (a, b) a world in `mode` may be read at: all ordered pairs of a
// dense world, transmitter-receiver pairs otherwise.
std::vector<std::pair<std::size_t, std::size_t>> readable_pairs(
    const sim::GeneratedTopology& topo, WorldMode mode) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  const std::size_t n = topo.scenario.nodes.size();
  EXPECT_EQ(topo.roles.size(), n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      const bool tx_rx = (topo.roles[a] & sim::kRoleTx) &&
                         (topo.roles[b] & sim::kRoleRx);
      if (a != b && (mode == WorldMode::kEagerDense || tx_rx)) {
        out.emplace_back(a, b);
      }
    }
  }
  return out;
}

class WorldReadModes : public ::testing::TestWithParam<WorldMode> {};

TEST_P(WorldReadModes, ReverseReadIsExactTranspose) {
  // A pair stores one channel array; the read b -> a is its transpose,
  // byte for byte, on every subcarrier — before and after advance() moves
  // the taps and the pair is re-derived.
  const sim::GeneratedTopology topo = WorldFixture::make();
  sim::World world = world_in_mode(topo, GetParam(), 11);
  const auto check = [&] {
    for (const auto& [a, b] : readable_pairs(topo, GetParam())) {
      for (std::size_t s = 0; s < sim::World::kSubcarriers; ++s) {
        const CMat fwd = world.channel(a, b, s);
        const CMat rev = world.channel(b, a, s);
        ASSERT_EQ(fwd.rows(), world.antennas(b));
        ASSERT_EQ(fwd.cols(), world.antennas(a));
        EXPECT_TRUE(same_bytes(rev, fwd.transpose()))
            << a << " -> " << b << " sc " << s;
      }
    }
  };
  check();
  channel::EvolutionConfig evo;
  evo.env_doppler_hz = 20.0;
  std::vector<channel::Location> moved;
  for (std::size_t i = 0; i < world.n_nodes(); ++i) {
    moved.push_back(world.node_position(i));
  }
  moved[1].x_m += 1.5;
  std::vector<double> speeds(moved.size(), 1.0);
  util::Rng dyn(3);
  const CMat before = world.channel(0, 1, 0);
  world.advance(moved, speeds, 0.05, evo, dyn);
  EXPECT_FALSE(same_bytes(world.channel(0, 1, 0), before));
  check();
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, WorldReadModes,
    ::testing::Values(WorldMode::kEagerDense, WorldMode::kSparse,
                      WorldMode::kLazy),
    [](const ::testing::TestParamInfo<WorldMode>& mode) {
      switch (mode.param) {
        case WorldMode::kEagerDense: return "EagerDense";
        case WorldMode::kSparse: return "Sparse";
        case WorldMode::kLazy: return "Lazy";
      }
      return "Unknown";
    });

TEST(WorldReads, LazyBeliefsFirstOrChannelsFirstGiveTheSameBytes) {
  // A lazy world draws each pair and each belief from its own stream, so
  // reading every belief before any channel (each belief read materializes
  // its pair) must give the bytes of reading every channel first.
  const sim::GeneratedTopology topo = WorldFixture::make();
  const sim::World beliefs_first = world_in_mode(topo, WorldMode::kLazy, 12);
  const sim::World channels_first = world_in_mode(topo, WorldMode::kLazy, 12);
  const auto pairs = readable_pairs(topo, WorldMode::kLazy);
  ASSERT_FALSE(pairs.empty());
  for (const auto& [a, b] : pairs) {
    (void)beliefs_first.reciprocal_channel(a, b, 0);
    (void)channels_first.channel(a, b, 0);
  }
  for (const auto& [a, b] : pairs) {
    for (std::size_t s = 0; s < sim::World::kSubcarriers; ++s) {
      EXPECT_TRUE(same_bytes(beliefs_first.channel(a, b, s),
                             channels_first.channel(a, b, s)));
      EXPECT_TRUE(same_bytes(beliefs_first.channel(b, a, s),
                             channels_first.channel(b, a, s)));
      EXPECT_TRUE(same_bytes(beliefs_first.reciprocal_channel(a, b, s),
                             channels_first.reciprocal_channel(a, b, s)));
    }
  }
}

// --- Churn mask at the round level --------------------------------------

TEST(ChurnMask, AllOnesMaskIsBitIdenticalToNoMask) {
  WorldFixture f1(13), f2(13);
  util::Rng r1(4), r2(4);
  sim::RoundConfig cfg;
  const sim::RoundResult a =
      sim::run_nplus_round(f1.world, f1.topo.scenario, r1, cfg);
  std::vector<std::uint8_t> ones(f2.topo.scenario.links.size(), 1);
  const sim::RoundResult b =
      sim::run_nplus_round(f2.world, f2.topo.scenario, r2, cfg, &ones);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.winner_order, b.winner_order);
  ASSERT_EQ(a.links.size(), b.links.size());
  for (std::size_t l = 0; l < a.links.size(); ++l) {
    EXPECT_EQ(a.links[l].delivered_bits, b.links[l].delivered_bits);
    EXPECT_EQ(a.links[l].mcs_index, b.links[l].mcs_index);
  }
}

TEST(ChurnMask, MaskedLinkNeverTransmits) {
  WorldFixture f(13);
  std::vector<std::uint8_t> mask = {1, 0, 1};  // three_pair: kill link 1
  util::Rng rng(4);
  sim::RoundConfig cfg;
  for (int round = 0; round < 10; ++round) {
    const sim::RoundResult res =
        sim::run_nplus_round(f.world, f.topo.scenario, rng, cfg, &mask);
    EXPECT_EQ(res.links[1].streams, 0u);
    EXPECT_EQ(res.links[1].delivered_bits, 0.0);
    const auto& w = res.winner_order;
    EXPECT_EQ(std::find(w.begin(), w.end(),
                        f.topo.scenario.links[1].tx_node),
              w.end());
  }
}

// --- AARF rate controller ------------------------------------------------

TEST(RateControl, ClimbsOnSuccessStreaks) {
  phy::RateControlConfig cfg;
  cfg.initial_mcs = 0;
  cfg.up_after = 3;
  phy::RateController rc(cfg);
  EXPECT_EQ(rc.select(0), 0);
  for (int i = 0; i < 3; ++i) rc.observe(0, true);
  EXPECT_EQ(rc.select(0), 1);
  for (int i = 0; i < 3; ++i) rc.observe(0, true);
  EXPECT_EQ(rc.select(0), 2);
}

TEST(RateControl, FailedProbeRevertsAndDoublesThreshold) {
  phy::RateControlConfig cfg;
  cfg.initial_mcs = 2;
  cfg.up_after = 2;
  phy::RateController rc(cfg);
  rc.observe(0, true);
  rc.observe(0, true);
  ASSERT_EQ(rc.select(0), 3);  // probed up
  rc.observe(0, false);        // first codeword at the probe fails
  EXPECT_EQ(rc.select(0), 2);  // immediate revert...
  rc.observe(0, true);
  rc.observe(0, true);
  EXPECT_EQ(rc.select(0), 2);  // ...and the next probe needs 2x successes
  rc.observe(0, true);
  rc.observe(0, true);
  EXPECT_EQ(rc.select(0), 3);
}

TEST(RateControl, StepsDownAfterConsecutiveLosses) {
  phy::RateControlConfig cfg;
  cfg.initial_mcs = 5;
  cfg.down_after = 2;
  phy::RateController rc(cfg);
  rc.observe(0, false);
  EXPECT_EQ(rc.select(0), 5);
  rc.observe(0, false);
  EXPECT_EQ(rc.select(0), 4);
  rc.observe(0, false);
  rc.observe(0, false);
  EXPECT_EQ(rc.select(0), 3);
  // Floors at 0, never underflows.
  for (int i = 0; i < 20; ++i) rc.observe(0, false);
  EXPECT_EQ(rc.select(0), 0);
}

TEST(RateControl, LinksAreIndependent) {
  phy::RateController rc;
  for (int i = 0; i < 20; ++i) rc.observe(3, true);
  EXPECT_GT(rc.select(3), rc.select(0));
}

// --- Sessions: dynamics-off identity, churn, determinism -----------------

void expect_sessions_equal(const sim::SessionResult& a,
                           const sim::SessionResult& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.idle_rounds, b.idle_rounds);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.total_mbps, b.total_mbps);
  EXPECT_EQ(a.jain, b.jain);
  EXPECT_EQ(a.mean_winners_per_round, b.mean_winners_per_round);
  EXPECT_EQ(a.mean_streams_per_round, b.mean_streams_per_round);
  EXPECT_EQ(a.mean_active_links, b.mean_active_links);
  ASSERT_EQ(a.per_link_mbps.size(), b.per_link_mbps.size());
  for (std::size_t l = 0; l < a.per_link_mbps.size(); ++l) {
    EXPECT_EQ(a.per_link_mbps[l], b.per_link_mbps[l]);
  }
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].t_s, b.series[i].t_s);
    EXPECT_EQ(a.series[i].rounds, b.series[i].rounds);
    EXPECT_EQ(a.series[i].total_mbps, b.series[i].total_mbps);
    EXPECT_EQ(a.series[i].join_rate, b.series[i].join_rate);
  }
}

TEST(DynamicSession, InactiveDynamicsNeverTouchTheWorld) {
  // The zero-Doppler / zero-churn regression: a DynamicsConfig whose
  // active() is false — whatever its inert knobs say — makes no dynamics
  // draws and never steps or re-measures the world, so it reproduces the
  // all-off session on a twin world and leaves every channel and belief as
  // built, whatever the scheme. (The golden fixtures in tests/golden/ and
  // the manual round-loop test in test_scenarios pin the all-off draw
  // sequence itself.)
  const sim::GeneratedTopology topo =
      sim::make_preset(sim::Preset::kDenseCell);
  for (const sim::Scheme scheme :
       {sim::Scheme::kNplus, sim::Scheme::kDot11n,
        sim::Scheme::kBeamforming}) {
    SCOPED_TRACE(static_cast<int>(scheme));
    sim::SessionConfig off;
    off.n_rounds = 30;
    off.scheme = scheme;
    // Beamforming runs only the paper's random-winner contention.
    off.round.dcf_contention = scheme != sim::Scheme::kBeamforming;
    sim::SessionConfig inert = off;
    inert.dynamics.mobility.speed_max_mps = 9.0;  // kStatic: nobody moves
    inert.dynamics.evolution.carrier_hz = 5.8e9;
    inert.dynamics.rate_control.initial_mcs = 5;  // AARF not enabled
    ASSERT_FALSE(inert.dynamics.active());

    util::Rng w1(42), w2(42), w3(42), s1(43), s2(43);
    sim::World world = sim::make_world(topo, w1);
    sim::World twin = sim::make_world(topo, w2);
    const sim::World untouched = sim::make_world(topo, w3);
    expect_sessions_equal(
        sim::run_session(world, topo.scenario, s1, off),
        sim::run_session(twin, topo.scenario, s2, inert));
    for (const sim::Link& link : topo.scenario.links) {
      for (std::size_t s = 0; s < sim::World::kSubcarriers; ++s) {
        EXPECT_TRUE(same_bytes(world.channel(link.tx_node, link.rx_node, s),
                               untouched.channel(link.tx_node, link.rx_node,
                                                 s)));
        EXPECT_TRUE(same_bytes(
            world.reciprocal_channel(link.tx_node, link.rx_node, s),
            untouched.reciprocal_channel(link.tx_node, link.rx_node, s)));
      }
    }
  }
}

// Runs a sweep at `threads` workers (0 = global pool); every item must
// complete.
std::vector<sim::SessionResult> run_sweep(
    const std::vector<sim::SweepItem>& items, std::uint64_t seed,
    std::size_t threads) {
  sim::RunnerConfig cfg;
  cfg.supervisor.n_threads = threads;
  sim::SweepOutcome out = sim::CheckpointedRunner(items, seed, cfg).run();
  EXPECT_TRUE(out.complete()) << out.report.summary();
  return std::move(out.results);
}

sim::SessionConfig dynamic_session_config() {
  sim::SessionConfig cfg;
  cfg.n_rounds = 24;
  cfg.dynamics.mobility.model = sim::MobilityModel::kRandomWaypoint;
  cfg.dynamics.mobility.speed_min_mps = 1.0;
  cfg.dynamics.mobility.speed_max_mps = 3.0;
  cfg.dynamics.evolution.env_doppler_hz = 15.0;
  cfg.dynamics.churn.flow_arrival_hz = 4.0;
  cfg.dynamics.churn.flow_departure_hz = 2.0;
  cfg.dynamics.churn.node_leave_hz = 0.5;
  cfg.dynamics.churn.node_return_hz = 4.0;
  cfg.dynamics.use_rate_control = true;
  return cfg;
}

TEST(DynamicSession, BitIdenticalAcrossThreadCounts) {
  // The headline determinism contract: mobile + churning + adapting
  // sessions produce byte-identical results at any pool size, because all
  // randomness is forked per item before dispatch.
  std::vector<sim::SweepItem> items;
  for (int i = 0; i < 4; ++i) {
    sim::SweepItem item;
    item.gen.n_links = 6;
    item.gen.placement = i % 2 == 0 ? sim::PlacementMode::kUniform
                                    : sim::PlacementMode::kClustered;
    item.session = dynamic_session_config();
    item.world.lazy_channels = i >= 2;
    items.push_back(item);
  }
  const auto r1 = run_sweep(items, 99, 1);
  const auto r3 = run_sweep(items, 99, 3);
  const auto rn = run_sweep(items, 99, 0);
  ASSERT_EQ(r1.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    expect_sessions_equal(r1[i], r3[i]);
    expect_sessions_equal(r1[i], rn[i]);
  }
}

TEST(DynamicSession, ChurnIdlesTheCellAndDynamicsChangeTheTrace) {
  const sim::GeneratedTopology topo =
      sim::make_preset(sim::Preset::kThreePair);

  // Heavy departures, no arrivals: flows die and stay dead.
  sim::SessionConfig dead;
  dead.n_rounds = 60;
  dead.dynamics.churn.flow_departure_hz = 2000.0;
  util::Rng w1(7), s1(8);
  sim::World world1 = sim::make_world(topo, w1);
  const sim::SessionResult churned =
      sim::run_session(world1, topo.scenario, s1, dead);
  EXPECT_GT(churned.idle_rounds, 0u);
  EXPECT_LT(churned.mean_active_links, 3.0);

  // Baseline (same seeds, no dynamics) delivers more.
  sim::SessionConfig base;
  base.n_rounds = 60;
  util::Rng w2(7), s2(8);
  sim::World world2 = sim::make_world(topo, w2);
  const sim::SessionResult still =
      sim::run_session(world2, topo.scenario, s2, base);
  EXPECT_EQ(still.idle_rounds, 0u);
  EXPECT_GT(still.total_mbps, churned.total_mbps);
}

TEST(DynamicSession, RateControlCrossValidatesAcrossFidelities) {
  // History-driven MCS adaptation runs in both scoring modes. The traces
  // diverge (the feedback is expectation-based vs realization-based), so
  // the check is statistical: both modes deliver, at the same order of
  // magnitude.
  const sim::GeneratedTopology topo =
      sim::make_preset(sim::Preset::kThreePair);
  double mbps[2] = {0.0, 0.0};
  for (int mode = 0; mode < 2; ++mode) {
    sim::SessionConfig cfg;
    cfg.n_rounds = 80;
    cfg.dynamics.use_rate_control = true;
    cfg.dynamics.evolution.env_doppler_hz = 5.0;
    cfg.round.fidelity =
        mode == 0 ? sim::Fidelity::kAbstracted : sim::Fidelity::kFullPhy;
    util::Rng w(11), s(12);
    sim::World world = sim::make_world(topo, w);
    mbps[mode] = sim::run_session(world, topo.scenario, s, cfg).total_mbps;
  }
  EXPECT_GT(mbps[0], 1.0);
  EXPECT_GT(mbps[1], 1.0);
  EXPECT_GT(mbps[0] / mbps[1], 0.4);
  EXPECT_LT(mbps[0] / mbps[1], 2.5);
}

}  // namespace
}  // namespace nplus
