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

// Sparse-mode filters: with roles present, a belief is only ever read from
// a transmitter about a receiver, and only tx<->rx pairs are materialized
// (the round builder reads nothing else). Empty roles = dense world.
bool belief_active(const std::vector<std::uint8_t>& roles, std::size_t a,
                   std::size_t b) {
  return roles.empty() || ((roles[a] & kRoleTx) && (roles[b] & kRoleRx));
}

bool pair_active(const std::vector<std::uint8_t>& roles, std::size_t a,
                 std::size_t b) {
  return belief_active(roles, a, b) || belief_active(roles, b, a);
}

// A lazy world's stream for `label`. Copy-then-fork: the base itself never
// advances, so the child depends only on the label, never on access order.
util::Rng lazy_stream(const util::Rng& lazy_base, std::uint64_t label) {
  util::Rng base = lazy_base.duplicate();
  return base.fork(label);
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
  // A node without antennas has 0 x M channels: its link SNR would average
  // over no entries (NaN) and every matrix read would be empty.
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].n_antennas == 0) {
      throw std::invalid_argument("World: node " + std::to_string(i) +
                                  " has zero antennas");
    }
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

// Where the read a -> b (rows x cols) finds entry (r, c) of subcarrier s in
// its pair's channel array: at s * rows * cols + r * row + c * col. The
// array holds lo -> hi, so a read from hi is its transpose.
struct Steps {
  std::size_t row;
  std::size_t col;
};
Steps read_steps(bool from_lo, std::size_t rows, std::size_t cols) {
  return from_lo ? Steps{cols, 1} : Steps{1, rows};
}

// Link SNR from realized fading: mean channel entry power over every
// subcarrier, divided by noise (the eager convention).
double fading_snr_db(const std::vector<cdouble>& h, double noise_power) {
  double p = 0.0;
  for (const cdouble& x : h) p += std::norm(x);
  return util::to_db(std::max(p / static_cast<double>(h.size()), 1e-30) /
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

  // Draw one physical channel per unordered pair from the caller's stream;
  // the reverse direction is its exact transpose (electromagnetic
  // reciprocity). Pairs arrive in ascending key order, so each entry goes
  // in at the end of the table.
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (!pair_active(roles, a, b)) continue;
      materialize(add_pair(pairs_.end(), a, b, rng)->second, a, b, rng);
    }
  }

  // Reciprocity-derived knowledge: node a's belief about channel a -> b is
  // the (noisy estimate of) the overheard b -> a channel, transposed, with
  // a fixed per-antenna-pair calibration error — all from the world's own
  // stream, in key order.
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b || !belief_active(roles, a, b)) continue;
      beliefs_.emplace_hint(beliefs_.end(), key(a, b),
                            measure_belief(a, b, rng_));
    }
  }
}

World::Pairs::iterator World::add_pair(Pairs::iterator hint, std::size_t lo,
                                      std::size_t hi,
                                      const util::Rng& stream) const {
  // The realized shadowing draw is recovered by peeking a COPY of the
  // pair's stream (link_gain is the first draw both make_channel and the
  // lazy budget make), so `stream` itself is untouched.
  Pair pair;
  pair.prev_dist_m = testbed_.distance_m(locations_[lo], locations_[hi]);
  util::Rng peek = stream.duplicate();
  const double loss_db = -util::to_db(std::max(
      testbed_.link_gain(locations_[lo], locations_[hi], peek), 1e-300));
  pair.shadow_s0_db =
      loss_db - testbed_.path_loss().median_loss_db(pair.prev_dist_m);
  return pairs_.emplace_hint(hint, key(lo, hi), std::move(pair));
}

World::Pair& World::entry(std::size_t lo, std::size_t hi) const {
  const std::uint64_t k = key(lo, hi);
  auto it = pairs_.lower_bound(k);
  if (it != pairs_.end() && it->first == k) return it->second;
  // An eager world built every active pair up front.
  assert(config_.lazy_channels);
  return add_pair(it, lo, hi, lazy_stream(lazy_base_, k))->second;
}

void World::materialize(Pair& pair, std::size_t lo, std::size_t hi,
                        util::Rng& rng) const {
  pair.taps = testbed_.make_channel(locations_[lo], locations_[hi],
                                    nodes_[lo].n_antennas,
                                    nodes_[hi].n_antennas, rng);
  // Dynamics catch-up: a lazy pair whose SNR was read (and then drifted) in
  // earlier epochs materializes at the CURRENT geometry — make_channel
  // already used the moved positions and re-realizes the pair stream's
  // shadowing draw — but must additionally realize the shadowing drift
  // the advances accumulated, so the channel delivers exactly the link
  // SNR the world has been advertising.
  // lint:allow float-equal: offset is exactly 0.0 until the first advance
  if (pair.shadow_offset_db() != 0.0) {
    pair.taps.scale_gain(util::from_db(-pair.shadow_offset_db()));
  }
  pair.has_channel = true;
  derive(pair);
}

void World::derive(Pair& pair) const {
  static const auto data_sc = phy::data_subcarriers();
  const std::size_t nm = pair.taps.n_rx() * pair.taps.n_tx();
  pair.h.resize(kSubcarriers * nm);
  for (std::size_t s = 0; s < kSubcarriers; ++s) {
    pair.taps.freq_response_into(data_sc[s], *twiddles_, &pair.h[s * nm]);
  }
  pair.stale = false;
  // Eager convention: link SNR averages the realized fading, so it tracks
  // the evolved channel, not just the budget.
  if (!config_.lazy_channels) {
    pair.snr_db = fading_snr_db(pair.h, noise_power_);
    pair.has_snr = true;
  }
}

World::Pair& World::fresh_pair(std::size_t a, std::size_t b) const {
  // Fires if a sparse world is asked for a masked-out (rx-rx / tx-tx) pair.
  assert(a != b && pair_active(roles_, a, b));
  const std::size_t lo = std::min(a, b);
  const std::size_t hi = std::max(a, b);
  Pair& pair = entry(lo, hi);
  if (!pair.has_channel) {
    util::Rng rng = lazy_stream(lazy_base_, key(lo, hi));
    materialize(pair, lo, hi, rng);
  } else if (pair.stale) {
    derive(pair);  // advance() moved the taps since the last derivation
  }
  return pair;
}

double World::estimation_var() const {
  // LS estimate over the two LTF repetitions: error variance noise/2.
  return config_.estimation_noise_scale * noise_power_ / 2.0;
}

World::Belief World::measure_belief(std::size_t a, std::size_t b,
                                    util::Rng& rng) const {
  // One calibration error per antenna pair, constant across subcarriers
  // (hardware chains are flat over 10 MHz). Stored: refresh_csi reuses it
  // — calibration is a hardware property, not a channel property.
  const std::size_t nm = nodes_[b].n_antennas * nodes_[a].n_antennas;
  Belief belief((kSubcarriers + 1) * nm);
  cdouble* cal = &belief[kSubcarriers * nm];
  for (std::size_t i = 0; i < nm; ++i) {
    cal[i] = cdouble{1.0, 0.0} + rng.cgaussian(config_.calibration_std *
                                               config_.calibration_std);
  }
  derive_beliefs(belief, a, b, rng);
  return belief;
}

void World::derive_beliefs(Belief& belief, std::size_t a, std::size_t b,
                           util::Rng& rng) const {
  // Node a overhears b: it estimates the reverse channel b -> a (M_a x N_b)
  // with fresh noise, entry by entry in row-major order, then transposes
  // it and applies the calibration error: belief(r, c) is
  // (rev(c, r) + noise) * cal(r, c).
  const Pair& pair = fresh_pair(a, b);
  const std::size_t n_b = nodes_[b].n_antennas;
  const std::size_t m_a = nodes_[a].n_antennas;
  const std::size_t nm = n_b * m_a;
  const Steps step = read_steps(b < a, m_a, n_b);
  const bool noisy = config_.estimation_noise_scale > 0.0;
  const double var = estimation_var();
  const cdouble* cal = &belief[kSubcarriers * nm];
  for (std::size_t s = 0; s < kSubcarriers; ++s) {
    const cdouble* rev = &pair.h[s * nm];
    cdouble* out = &belief[s * nm];
    for (std::size_t i = 0; i < m_a; ++i) {
      for (std::size_t j = 0; j < n_b; ++j) {
        cdouble est = rev[i * step.row + j * step.col];
        if (noisy) est += rng.cgaussian(var);
        est *= cal[j * m_a + i];
        out[j * m_a + i] = est;
      }
    }
  }
}

CMat World::channel(std::size_t a, std::size_t b, std::size_t sc) const {
  assert(sc < kSubcarriers);
  const Pair& pair = fresh_pair(a, b);
  const std::size_t rows = nodes_[b].n_antennas;
  const std::size_t cols = nodes_[a].n_antennas;
  const Steps step = read_steps(a < b, rows, cols);
  const cdouble* h = &pair.h[sc * rows * cols];
  CMat out(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      out(r, c) = h[r * step.row + c * step.col];
    }
  }
  return out;
}

double World::link_snr_db(std::size_t a, std::size_t b) const {
  if (a == b || !pair_active(roles_, a, b)) return -300.0;
  const std::size_t lo = std::min(a, b);
  const std::size_t hi = std::max(a, b);
  // An eager pair's SNR is derived with its channels.
  Pair& pair = config_.lazy_channels ? entry(lo, hi) : fresh_pair(a, b);
  if (!pair.has_snr) {
    // The link budget (pathloss + shadowing) is the FIRST draw of the
    // pair's stream — the same draw make_channel consumes first — so the
    // channel materialized later realizes exactly this shadowing. Like
    // materialize, the budget re-realizes that draw at the current
    // geometry and must also carry the drift accumulated by advances
    // before this first read — otherwise the advertised SNR would depend
    // on whether the channel or the SNR was touched first.
    util::Rng rng = lazy_stream(lazy_base_, key(lo, hi));
    const double gain =
        testbed_.link_gain(locations_[lo], locations_[hi], rng);
    pair.snr_db = util::to_db(std::max(gain, 1e-30) / noise_power_) -
                  pair.shadow_offset_db();
    pair.has_snr = true;
  }
  return pair.snr_db;
}

CMat World::estimate(const CMat& true_channel) const {
  CMat est = true_channel;
  if (config_.estimation_noise_scale <= 0.0) return est;
  const double var = estimation_var();
  for (std::size_t r = 0; r < est.rows(); ++r) {
    for (std::size_t c = 0; c < est.cols(); ++c) {
      est(r, c) += rng_.cgaussian(var);
    }
  }
  return est;
}

CMat World::reciprocal_channel(std::size_t a, std::size_t b,
                               std::size_t sc) const {
  assert(a != b && sc < kSubcarriers);
  const std::uint64_t k = key(a, b);
  auto it = beliefs_.lower_bound(k);
  if (it == beliefs_.end() || it->first != k) {
    // An eager world measured every belief up front; a lazy one measures
    // on first read, from the directed pair's own stream. Fires if a
    // sparse world is asked for a belief that is never read (rx -> tx).
    assert(config_.lazy_channels && belief_active(roles_, a, b));
    const std::uint64_t n = nodes_.size();  // directed labels follow n * n
    util::Rng rng = lazy_stream(lazy_base_, n * n + k);
    it = beliefs_.emplace_hint(it, k, measure_belief(a, b, rng));
  }
  const std::size_t rows = nodes_[b].n_antennas;
  const std::size_t cols = nodes_[a].n_antennas;
  CMat out(rows, cols);
  std::copy_n(&it->second[sc * rows * cols], rows * cols, out.data());
  return out;
}

// --- Dynamics -----------------------------------------------------------

const channel::Location& World::node_position(std::size_t node) const {
  assert(node < locations_.size());
  return testbed_.location(locations_[node]);
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
  for (std::size_t i = 0; i < n; ++i) {
    testbed_.move_location(locations_[i], positions[i]);
  }

  const channel::PathLossModel& pl = testbed_.path_loss();
  // Fixed key order (std::map), so the draw sequence never depends on the
  // order in which rounds happened to touch pairs.
  for (auto& [k, pair] : pairs_) {
    const std::size_t lo = static_cast<std::size_t>(k / n);
    const std::size_t hi = static_cast<std::size_t>(k % n);

    // Large scale: deterministic median-path-loss change plus anchored
    // Gudmundson shadowing (draws only if something moved). The pair's
    // total shadowing is anchor * s0 + delta; one AR(1) step at rho_s
    // decays the anchor and refreshes delta so total variance stays at
    // the path-loss model's sigma^2 exactly (see Pair).
    double gain_delta_db = 0.0;
    const double moved = disp[lo] + disp[hi];
    if (moved > 0.0) {
      const double d_new = testbed_.distance_m(locations_[lo],
                                               locations_[hi]);
      const double rho_s =
          channel::shadow_rho(moved, evolution.shadow_decorr_m);
      const double anchor_new = rho_s * pair.shadow_anchor;
      const double delta_new =
          rho_s * pair.shadow_delta_db +
          std::sqrt(std::max(0.0, 1.0 - rho_s * rho_s)) *
              rng.gaussian(0.0, pl.shadowing_sigma_db);
      gain_delta_db =
          pl.median_loss_db(pair.prev_dist_m) - pl.median_loss_db(d_new) +
          (pair.shadow_anchor - anchor_new) * pair.shadow_s0_db +
          (pair.shadow_delta_db - delta_new);
      pair.shadow_anchor = anchor_new;
      pair.shadow_delta_db = delta_new;
      pair.prev_dist_m = d_new;
    }

    // Small scale: one Gauss-Markov step at the Jakes-matched rho. The
    // draws happen now, in key order; the pair's channels are re-derived
    // from the moved taps only when something reads them, since most pairs
    // move several times between reads.
    const double fd =
        evolution.env_doppler_hz +
        channel::doppler_hz(node_speed_mps[lo] + node_speed_mps[hi],
                            evolution.carrier_hz);
    const double rho_d = channel::doppler_rho(fd, dt_s);
    // lint:allow float-equal: exact-zero delta is the draw-free no-op guard
    const bool rescale = gain_delta_db != 0.0;
    if (pair.has_channel && (rho_d < 1.0 || rescale)) {
      pair.taps.evolve(rho_d, rng);  // no-op, no draws, at rho_d >= 1
      if (rescale) pair.taps.scale_gain(util::from_db(gain_delta_db));
      pair.stale = true;
    }
    // A lazy link SNR is a budget number: shift it by the large-scale
    // delta (fading evolution leaves the budget untouched).
    if (rescale && config_.lazy_channels && pair.has_snr) {
      pair.snr_db += gain_delta_db;
    }
  }
}

void World::refresh_csi(std::size_t a, std::size_t b, util::Rng& rng) {
  assert(a != b);
  auto it = beliefs_.find(key(a, b));
  if (it == beliefs_.end()) return;  // never measured; stays lazy
  derive_beliefs(it->second, a, b, rng);
}

}  // namespace nplus::sim
