#include "sim/world.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "phy/ofdm_params.h"
#include "util/units.h"

namespace nplus::sim {

namespace {

// Sparse-mode pair filter: with roles present, only tx<->rx pairs are
// materialized (the round builder only ever reads channels, beliefs, and
// SNRs from a transmitter to a receiver). Empty roles = dense world.
bool pair_active(const std::vector<std::uint8_t>& roles, std::size_t a,
                 std::size_t b) {
  if (roles.empty()) return true;
  return ((roles[a] & kRoleTx) && (roles[b] & kRoleRx)) ||
         ((roles[b] & kRoleTx) && (roles[a] & kRoleRx));
}

// Config sanity: a NaN calibration error or a zero FFT would not crash
// here — it would silently poison every eSNR downstream. Reject loudly,
// before anything (the twiddle table included) is built from the config.
const WorldConfig& checked(const WorldConfig& config,
                           const std::vector<NodeSpec>& nodes) {
  if (nodes.empty()) {
    throw std::invalid_argument("World: zero-node world (empty NodeSpec"
                                " list); nothing to simulate");
  }
  if (!std::isfinite(config.calibration_std) ||
      config.calibration_std < 0.0) {
    throw std::invalid_argument(
        "World: calibration_std must be finite and >= 0, got " +
        std::to_string(config.calibration_std));
  }
  if (!std::isfinite(config.estimation_noise_scale) ||
      config.estimation_noise_scale < 0.0) {
    throw std::invalid_argument(
        "World: estimation_noise_scale must be finite and >= 0, got " +
        std::to_string(config.estimation_noise_scale));
  }
  // Below 64 bins the 52 used subcarriers no longer fit the grid: at 32
  // they alias, at 16 the negative-k bins (fft_size - |k|) wrap around.
  if (config.fft_size < 64 ||
      (config.fft_size & (config.fft_size - 1)) != 0) {
    throw std::invalid_argument(
        "World: fft_size must be a power of two >= 64, got " +
        std::to_string(config.fft_size));
  }
  return config;
}

// Link SNR from realized fading: mean channel entry power over every
// subcarrier, divided by noise (the eager convention).
double fading_snr_db(const std::vector<CMat>& h, double noise_power) {
  double p = 0.0;
  std::size_t cnt = 0;
  for (const CMat& hs : h) {
    for (std::size_t r = 0; r < hs.rows(); ++r) {
      for (std::size_t c = 0; c < hs.cols(); ++c) {
        p += std::norm(hs(r, c));
        ++cnt;
      }
    }
  }
  return util::to_db(std::max(p / static_cast<double>(cnt), 1e-30) /
                     noise_power);
}

}  // namespace

World::World(const channel::Testbed& testbed,
             const std::vector<NodeSpec>& nodes,
             const std::vector<std::size_t>& locations, util::Rng& rng,
             const WorldConfig& config,
             const std::vector<std::uint8_t>& roles)
    : nodes_(nodes),
      config_(checked(config, nodes)),
      // Every channel a World draws comes from Testbed::make_channel, i.e.
      // the default profile's tap count.
      twiddles_(&channel::Twiddles::shared(config_.fft_size,
                                           channel::ChannelProfile{}.n_taps)),
      noise_power_(testbed.noise_power_linear()),
      rng_(rng.fork(0x77)),
      testbed_(testbed),
      locations_(locations),
      roles_(roles) {
  assert(nodes.size() == locations.size());
  assert(roles.empty() || roles.size() == nodes.size());
  const std::size_t n = nodes.size();

  if (config_.lazy_channels) {
    // Nothing is drawn up front: reserve a fork base whose children are
    // keyed purely by pair labels.
    lazy_base_ = rng.fork(0x177);
    return;
  }

  channels_.assign(n, std::vector<std::vector<CMat>>(n));
  recip_.assign(n, std::vector<std::vector<CMat>>(n));
  link_snr_db_.assign(n, std::vector<double>(n, -300.0));

  // Draw one physical channel per unordered pair; the reverse direction is
  // its exact transpose (electromagnetic reciprocity). The tap-domain
  // channel is retained (pair_taps_) so advance() can evolve it later.
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (!pair_active(roles, a, b)) continue;
      // Dynamics ledger entry. The realized shadowing draw is recovered by
      // peeking a COPY of the stream (link_gain is the first draw
      // make_channel makes), so the real stream is untouched.
      {
        PairDyn dyn;
        dyn.prev_dist_m = testbed.distance_m(locations[a], locations[b]);
        util::Rng peek = rng.duplicate();
        const double loss_db = -util::to_db(std::max(
            testbed.link_gain(locations[a], locations[b], peek), 1e-300));
        dyn.shadow_s0_db =
            loss_db - testbed.path_loss().median_loss_db(dyn.prev_dist_m);
        dyn_.emplace(static_cast<std::uint64_t>(a) * n + b, dyn);
      }
      channel::MimoChannel fwd = testbed.make_channel(
          locations[a], locations[b], nodes[a].n_antennas,
          nodes[b].n_antennas, rng);

      fill_pair(fwd, channels_[a][b], channels_[b][a]);
      pair_taps_.emplace(static_cast<std::uint64_t>(a) * n + b,
                         std::move(fwd));

      // Pre-cancellation link SNR (mean channel entry power / noise).
      const double snr = fading_snr_db(channels_[a][b], noise_power_);
      link_snr_db_[a][b] = snr;
      link_snr_db_[b][a] = snr;
    }
  }

  // Reciprocity-derived knowledge: node a's belief about channel a -> b is
  // the (noisy estimate of) the overheard b -> a channel, transposed, with
  // a fixed per-antenna-pair calibration error.
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b) continue;
      // A belief is only ever read from a transmitter about a receiver.
      if (!roles.empty() &&
          !((roles[a] & kRoleTx) && (roles[b] & kRoleRx))) {
        continue;
      }
      // One calibration error per antenna pair, constant across subcarriers
      // (hardware chains are flat over 10 MHz). Stored: refresh_csi reuses
      // it — calibration is a hardware property, not a channel property.
      CMat cal(nodes_[b].n_antennas, nodes_[a].n_antennas);
      for (std::size_t r = 0; r < cal.rows(); ++r) {
        for (std::size_t c = 0; c < cal.cols(); ++c) {
          cal(r, c) = cdouble{1.0, 0.0} +
                      rng_.cgaussian(config_.calibration_std *
                                     config_.calibration_std);
        }
      }
      recip_[a][b] = derive_beliefs(channels_[b][a], cal, rng_);
      cal_.emplace(static_cast<std::uint64_t>(a) * n + b, std::move(cal));
    }
  }
}

void World::fill_pair(const channel::MimoChannel& ch, std::vector<CMat>& fwd,
                      std::vector<CMat>& rev) const {
  static const auto data_sc = phy::data_subcarriers();
  fwd.resize(kSubcarriers);
  rev.resize(kSubcarriers);
  for (std::size_t s = 0; s < kSubcarriers; ++s) {
    const CMat h = ch.freq_response(data_sc[s], *twiddles_);
    fwd[s] = h;                // lo -> hi: N_hi x M_lo
    rev[s] = h.transpose();    // hi -> lo: reciprocity
  }
}

CMat World::estimate_with(const CMat& true_channel, util::Rng& rng) const {
  CMat est = true_channel;
  if (config_.estimation_noise_scale <= 0.0) return est;
  // LS estimate over the two LTF repetitions: error variance noise/2.
  const double var = config_.estimation_noise_scale * noise_power_ / 2.0;
  for (std::size_t r = 0; r < est.rows(); ++r) {
    for (std::size_t c = 0; c < est.cols(); ++c) {
      est(r, c) += rng.cgaussian(var);
    }
  }
  return est;
}

std::vector<CMat> World::derive_beliefs(const std::vector<CMat>& rev_chan,
                                        const CMat& cal,
                                        util::Rng& rng) const {
  std::vector<CMat> beliefs(kSubcarriers);
  for (std::size_t s = 0; s < kSubcarriers; ++s) {
    const CMat est_rev = estimate_with(rev_chan[s], rng);  // M_a x N_b
    CMat belief = est_rev.transpose();                     // N_b x M_a
    for (std::size_t r = 0; r < belief.rows(); ++r) {
      for (std::size_t c = 0; c < belief.cols(); ++c) {
        belief(r, c) *= cal(r, c);
      }
    }
    beliefs[s] = std::move(belief);
  }
  return beliefs;
}

const CMat& World::channel(std::size_t a, std::size_t b,
                           std::size_t sc) const {
  assert(a != b && sc < kSubcarriers);
  if (config_.lazy_channels) return lazy_channel(a, b)[sc];
  // Fires if a sparse world is asked for a masked-out (rx-rx / tx-tx) pair.
  assert(!channels_[a][b].empty());
  return channels_[a][b][sc];
}

double World::link_snr_db(std::size_t a, std::size_t b) const {
  if (config_.lazy_channels) return lazy_link_snr_db(a, b);
  return link_snr_db_[a][b];
}

const std::vector<CMat>& World::lazy_channel(std::size_t a,
                                             std::size_t b) const {
  // Same masked-pair contract as the eager sparse mode.
  assert(pair_active(roles_, a, b));
  const std::size_t n = nodes_.size();
  const std::size_t lo = std::min(a, b);
  const std::size_t hi = std::max(a, b);
  const std::uint64_t key = static_cast<std::uint64_t>(lo) * n + hi;
  auto it = lazy_pairs_.find(key);
  if (it == lazy_pairs_.end()) {
    // Copy-then-fork: lazy_base_ itself never advances, so the child
    // stream depends only on the pair label, never on access order.
    util::Rng base = lazy_base_.duplicate();
    util::Rng pair_rng = base.fork(key);
    // Dynamics ledger (peek a stream copy; see the eager constructor).
    PairDyn& dyn = dyn_.try_emplace(key).first->second;
    // lint:allow float-equal: 0.0 is the exact not-yet-initialized sentinel
    if (dyn.prev_dist_m == 0.0) {
      dyn.prev_dist_m = testbed_.distance_m(locations_[lo], locations_[hi]);
      util::Rng peek = pair_rng.duplicate();
      const double loss_db = -util::to_db(std::max(
          testbed_.link_gain(locations_[lo], locations_[hi], peek),
          1e-300));
      dyn.shadow_s0_db =
          loss_db - testbed_.path_loss().median_loss_db(dyn.prev_dist_m);
    }
    channel::MimoChannel fwd = testbed_.make_channel(
        locations_[lo], locations_[hi], nodes_[lo].n_antennas,
        nodes_[hi].n_antennas, pair_rng);
    // Dynamics catch-up: a pair whose SNR was read (and then drifted) in
    // earlier epochs materializes at the CURRENT geometry — make_channel
    // already used the moved positions and re-realizes the pair stream's
    // shadowing draw — but must additionally realize the shadowing drift
    // the advances accumulated, so the channel delivers exactly the link
    // SNR the world has been advertising.
    // lint:allow float-equal: offset is exactly 0.0 until the first advance
    if (dyn.shadow_offset_db() != 0.0) {
      fwd.scale_gain(util::from_db(-dyn.shadow_offset_db()));
    }
    LazyPair entry;
    fill_pair(fwd, entry.fwd, entry.rev);
    entry.taps = std::move(fwd);
    it = lazy_pairs_.emplace(key, std::move(entry)).first;
  } else if (it->second.stale) {
    // advance() moved the taps since the matrices were last derived.
    LazyPair& entry = it->second;
    fill_pair(entry.taps, entry.fwd, entry.rev);
    entry.stale = false;
  }
  return a < b ? it->second.fwd : it->second.rev;
}

double World::lazy_link_snr_db(std::size_t a, std::size_t b) const {
  if (a == b) return -300.0;
  if (!pair_active(roles_, a, b)) return -300.0;
  const std::size_t n = nodes_.size();
  const std::size_t lo = std::min(a, b);
  const std::size_t hi = std::max(a, b);
  const std::uint64_t key = static_cast<std::uint64_t>(lo) * n + hi;
  auto it = lazy_snr_.find(key);
  if (it == lazy_snr_.end()) {
    // The link budget (pathloss + shadowing) is the FIRST draw of the
    // pair's stream — the same draw make_channel consumes first — so the
    // channel materialized later realizes exactly this shadowing.
    util::Rng base = lazy_base_.duplicate();
    util::Rng pair_rng = base.fork(key);
    const double gain =
        testbed_.link_gain(locations_[lo], locations_[hi], pair_rng);
    double snr = util::to_db(std::max(gain, 1e-30) / noise_power_);
    // Dynamics ledger: the budget draw IS the realized shadowing, so s0
    // falls out directly (sample - median, distance-independent).
    PairDyn& dyn = dyn_.try_emplace(key).first->second;
    // lint:allow float-equal: 0.0 is the exact not-yet-initialized sentinel
    if (dyn.prev_dist_m == 0.0) {
      dyn.prev_dist_m = testbed_.distance_m(locations_[lo], locations_[hi]);
      dyn.shadow_s0_db =
          -util::to_db(std::max(gain, 1e-300)) -
          testbed_.path_loss().median_loss_db(dyn.prev_dist_m);
    }
    // Dynamics catch-up, mirroring lazy_channel: the budget re-realizes
    // the pair stream's shadowing draw at the current geometry, but must
    // also carry the shadowing drift accumulated by advances before this
    // first read — otherwise the advertised SNR would depend on whether
    // the channel or the SNR was touched first.
    snr -= dyn.shadow_offset_db();
    it = lazy_snr_.emplace(key, snr).first;
  }
  return it->second;
}

const std::vector<CMat>& World::lazy_recip(std::size_t a,
                                           std::size_t b) const {
  // A belief is only ever read from a transmitter about a receiver.
  assert(roles_.empty() ||
         ((roles_[a] & kRoleTx) && (roles_[b] & kRoleRx)));
  const std::size_t n = nodes_.size();
  const std::uint64_t key = static_cast<std::uint64_t>(n) * n +
                            static_cast<std::uint64_t>(a) * n + b;
  auto it = lazy_recip_.find(key);
  if (it == lazy_recip_.end()) {
    const std::vector<CMat>& rev_chan = lazy_channel(b, a);  // M_a x N_b
    util::Rng base = lazy_base_.duplicate();
    util::Rng recip_rng = base.fork(key);
    // One calibration error per antenna pair, constant across subcarriers
    // (hardware chains are flat over 10 MHz) — as in the eager mode, but
    // drawn from the directed pair's own stream.
    CMat cal(nodes_[b].n_antennas, nodes_[a].n_antennas);
    for (std::size_t r = 0; r < cal.rows(); ++r) {
      for (std::size_t c = 0; c < cal.cols(); ++c) {
        cal(r, c) = cdouble{1.0, 0.0} +
                    recip_rng.cgaussian(config_.calibration_std *
                                        config_.calibration_std);
      }
    }
    std::vector<CMat> beliefs = derive_beliefs(rev_chan, cal, recip_rng);
    cal_.emplace(static_cast<std::uint64_t>(a) * n + b, std::move(cal));
    it = lazy_recip_.emplace(key, std::move(beliefs)).first;
  }
  return it->second;
}

CMat World::estimate(const CMat& true_channel) const {
  return estimate_with(true_channel, rng_);
}

const CMat& World::reciprocal_channel(std::size_t a, std::size_t b,
                                      std::size_t sc) const {
  assert(a != b && sc < kSubcarriers);
  if (config_.lazy_channels) return lazy_recip(a, b)[sc];
  // Fires if a sparse world is asked for a belief it never materialized.
  assert(!recip_[a][b].empty());
  return recip_[a][b][sc];
}

// --- Dynamics -----------------------------------------------------------

const channel::Location& World::node_position(std::size_t node) const {
  assert(node < locations_.size());
  return testbed_.location(locations_[node]);
}

void World::rematerialize_pair(std::uint64_t key,
                               const channel::MimoChannel& ch) {
  const std::size_t n = nodes_.size();
  const std::size_t lo = static_cast<std::size_t>(key / n);
  const std::size_t hi = static_cast<std::size_t>(key % n);
  fill_pair(ch, channels_[lo][hi], channels_[hi][lo]);
  // Eager convention: link SNR averages the realized fading (as in the
  // constructor), so it tracks the evolved channel, not just the budget.
  const double snr = fading_snr_db(channels_[lo][hi], noise_power_);
  link_snr_db_[lo][hi] = snr;
  link_snr_db_[hi][lo] = snr;
}

void World::advance(const std::vector<channel::Location>& positions,
                    const std::vector<double>& node_speed_mps, double dt_s,
                    const channel::EvolutionConfig& evolution,
                    util::Rng& rng) {
  const std::size_t n = nodes_.size();
  assert(positions.size() == n);
  assert(node_speed_mps.size() == n);
  if (dt_s <= 0.0) return;

  // Per-node displacement drives shadowing decorrelation; capture it before
  // committing the move.
  std::vector<double> disp(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const channel::Location& old = testbed_.location(locations_[i]);
    disp[i] = std::hypot(positions[i].x_m - old.x_m,
                         positions[i].y_m - old.y_m);
  }

  // Every materialized pair already has a dynamics-ledger entry (created
  // at materialization, where the realized shadowing draw is in hand).
  for (std::size_t i = 0; i < n; ++i) {
    testbed_.move_location(locations_[i], positions[i]);
  }

  const channel::PathLossModel& pl = testbed_.path_loss();
  // Fixed key order (std::map), so the draw sequence never depends on the
  // order in which rounds happened to touch pairs.
  for (auto& [key, dyn] : dyn_) {
    const std::size_t lo = static_cast<std::size_t>(key / n);
    const std::size_t hi = static_cast<std::size_t>(key % n);

    // Large scale: deterministic median-path-loss change plus anchored
    // Gudmundson shadowing (draws only if something moved). The pair's
    // total shadowing is anchor * s0 + delta; one AR(1) step at rho_s
    // decays the anchor and refreshes delta so total variance stays at
    // the path-loss model's sigma^2 exactly (see PairDyn).
    double gain_delta_db = 0.0;
    const double moved = disp[lo] + disp[hi];
    if (moved > 0.0) {
      const double d_new = testbed_.distance_m(locations_[lo],
                                               locations_[hi]);
      const double rho_s =
          channel::shadow_rho(moved, evolution.shadow_decorr_m);
      const double anchor_new = rho_s * dyn.shadow_anchor;
      const double delta_new =
          rho_s * dyn.shadow_delta_db +
          std::sqrt(std::max(0.0, 1.0 - rho_s * rho_s)) *
              rng.gaussian(0.0, pl.shadowing_sigma_db);
      gain_delta_db =
          pl.median_loss_db(dyn.prev_dist_m) - pl.median_loss_db(d_new) +
          (dyn.shadow_anchor - anchor_new) * dyn.shadow_s0_db +
          (dyn.shadow_delta_db - delta_new);
      dyn.shadow_anchor = anchor_new;
      dyn.shadow_delta_db = delta_new;
      dyn.prev_dist_m = d_new;
    }

    // Small scale: one Gauss-Markov step at the Jakes-matched rho.
    const double fd =
        evolution.env_doppler_hz +
        channel::doppler_hz(node_speed_mps[lo] + node_speed_mps[hi],
                            evolution.carrier_hz);
    const double rho_d = channel::doppler_rho(fd, dt_s);

    channel::MimoChannel* ch = nullptr;
    LazyPair* lazy = nullptr;
    if (config_.lazy_channels) {
      auto it = lazy_pairs_.find(key);
      if (it != lazy_pairs_.end()) {
        lazy = &it->second;
        ch = &lazy->taps;
      }
    } else {
      auto it = pair_taps_.find(key);
      if (it != pair_taps_.end()) ch = &it->second;
    }

    bool changed = false;
    if (ch != nullptr && rho_d < 1.0) {
      ch->evolve(rho_d, rng);
      changed = true;
    }
    // lint:allow float-equal: exact-zero delta is the draw-free no-op guard
    if (ch != nullptr && gain_delta_db != 0.0) {
      ch->scale_gain(util::from_db(gain_delta_db));
      changed = true;
    }
    // The draws above happen now, in key order. A lazy pair's matrices are
    // re-derived from the moved taps only when something reads them; most
    // pairs move several times between reads.
    if (changed) {
      if (lazy != nullptr) {
        lazy->stale = true;
      } else {
        rematerialize_pair(key, *ch);
      }
    }

    // Lazy link SNRs are budget numbers: shift them by the large-scale
    // delta (fading evolution leaves the budget untouched). Covers both
    // SNR-only pairs and pairs with materialized channels.
    // lint:allow float-equal: exact-zero delta is the draw-free no-op guard
    if (config_.lazy_channels && gain_delta_db != 0.0) {
      auto snr_it = lazy_snr_.find(key);
      if (snr_it != lazy_snr_.end()) snr_it->second += gain_delta_db;
    }
  }
}

void World::refresh_csi(std::size_t a, std::size_t b, util::Rng& rng) {
  assert(a != b);
  const std::size_t n = nodes_.size();
  const std::uint64_t dkey = static_cast<std::uint64_t>(a) * n + b;
  const auto cal_it = cal_.find(dkey);
  if (config_.lazy_channels) {
    const std::uint64_t rkey = static_cast<std::uint64_t>(n) * n + dkey;
    auto it = lazy_recip_.find(rkey);
    if (it == lazy_recip_.end()) return;  // never measured; stays lazy
    assert(cal_it != cal_.end());
    it->second = derive_beliefs(lazy_channel(b, a), cal_it->second, rng);
    return;
  }
  if (recip_[a][b].empty()) return;
  assert(cal_it != cal_.end());
  recip_[a][b] = derive_beliefs(channels_[b][a], cal_it->second, rng);
}

}  // namespace nplus::sim
