// The packet-level "world": nodes placed on the testbed with fully drawn
// per-subcarrier MIMO channels between every node pair, plus the two error
// processes that bound real-world nulling depth:
//   * estimation error — every channel estimate from a preamble carries
//     CN(0, noise/2) noise per entry (LS estimation over the two LTF
//     repetitions);
//   * reciprocity calibration error — channels inferred from overheard
//     transmissions in the opposite direction additionally carry a small
//     multiplicative error left over after hardware calibration (§2
//     footnote 2; this is what caps cancellation at the paper's ~25-27 dB).
//
// The signal-level plane (channel::Scene + phy::transceiver) reproduces
// these effects physically; this class reproduces them statistically so the
// MAC/throughput experiments can run thousands of rounds cheaply.
//
// Worlds may also be DYNAMIC: advance() moves nodes and evolves every
// materialized channel with a Doppler-matched Gauss-Markov step (beliefs
// deliberately go stale; refresh_csi() re-measures one pair) — see the
// "Dynamic networks" section in src/README.md. A world that is never
// advanced behaves exactly as before.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "channel/evolution.h"
#include "channel/mimo_channel.h"
#include "channel/testbed.h"
#include "linalg/mat.h"
#include "util/rng.h"

namespace nplus::sim {

using linalg::CMat;
using linalg::cdouble;

struct NodeSpec {
  std::size_t n_antennas = 1;
};

// Per-node role bits for the sparse world mode (see World constructor).
enum NodeRole : std::uint8_t {
  kRoleTx = 1,  // node transmits on some link
  kRoleRx = 2,  // node receives on some link
};

struct WorldConfig {
  // Residual multiplicative reciprocity-calibration error (std of the
  // complex relative error). 0.045 yields ~27 dB max cancellation.
  double calibration_std = 0.045;
  // Scale on the additive estimation noise (1 = physical LS noise; 0
  // disables estimation error for idealized studies).
  double estimation_noise_scale = 1.0;
  // A power of two >= 64 (the 52 used subcarriers must fit the grid).
  std::size_t fft_size = 64;
  // Lazy mode: draw nothing up front; materialize each pair's channels,
  // reciprocity beliefs, and link SNR on first access. Every pair draws
  // from its own label-forked RNG stream, so results are deterministic and
  // independent of access order — but NOT bit-identical to the eager modes
  // (a different, per-pair stream layout). The eager modes draw the full
  // tx-rx cross product (O(N^2) pairs x 48 subcarriers), which tops out
  // around 100-pair worlds; lazy worlds only pay for pairs a round
  // actually touches (winners x receivers, plus scalar SNRs for admission),
  // which is what makes 250/500-pair topologies fit in CI memory and time.
  // Lazy link SNR is the pathloss+shadowing link budget (the same draw that
  // seeds the pair's channel, so the later-materialized channel realizes
  // exactly that shadowing); eager SNR additionally averages the fading
  // realization. A lazy World mutates on read: do not share one instance
  // across threads (the parallel harness gives each item its own world).
  bool lazy_channels = false;
};

class World {
 public:
  // Places `nodes` at `locations` (testbed location indices) and draws all
  // pairwise channels.
  //
  // `roles` (optional) enables the sparse mode the scenario engine uses for
  // generated large topologies: when non-empty (one NodeRole bitmask per
  // node), only pairs where one endpoint transmits and the other receives
  // get channels, reciprocity beliefs, and link SNRs — everything the round
  // builder ever touches — while rx-rx and tx-tx pairs stay unmaterialized.
  // A full N-node world is O(N^2 * 48) matrices; with N_t transmitters and
  // N_r receivers the sparse world is O(N_t * N_r * 48), which is what makes
  // 100-pair (200-node) worlds fit in memory. An empty `roles` reproduces
  // the dense behavior (and its RNG stream) exactly. Accessing a channel,
  // belief, or SNR for a masked-out pair is a contract violation (asserted;
  // SNR reads return -300 dB).
  World(const channel::Testbed& testbed, const std::vector<NodeSpec>& nodes,
        const std::vector<std::size_t>& locations, util::Rng& rng,
        const WorldConfig& config = {},
        const std::vector<std::uint8_t>& roles = {});

  std::size_t n_nodes() const { return nodes_.size(); }
  std::size_t antennas(std::size_t node) const {
    return nodes_[node].n_antennas;
  }
  double noise_power() const { return noise_power_; }
  const WorldConfig& config() const { return config_; }

  // True channel from node a to node b on data subcarrier index `sc`
  // (0..47): an (antennas(b) x antennas(a)) matrix.
  const CMat& channel(std::size_t a, std::size_t b, std::size_t sc) const;

  // Mean per-antenna received power at b for a unit-power transmission from
  // one antenna of a (averaged over subcarriers) divided by noise: the
  // pre-cancellation "interference SNR" of Fig. 11's x axis, in dB.
  double link_snr_db(std::size_t a, std::size_t b) const;

  // Draws a fresh receiver-side estimate of an effective channel matrix
  // (adds LS estimation noise; deterministic in the world's RNG stream).
  CMat estimate(const CMat& true_channel) const;

  // The channel from a to b as *node a* can know it: reciprocity from b's
  // overheard transmission, i.e. estimate noise + calibration error.
  // Cached per (a, b): the calibration error is a fixed hardware property.
  //
  // Under dynamics this cache is exactly what goes STALE: advance() evolves
  // the true channels but deliberately leaves beliefs at their
  // last-measured values; refresh_csi() re-measures one directed pair.
  const CMat& reciprocal_channel(std::size_t a, std::size_t b,
                                 std::size_t sc) const;

  // --- Dynamic networks --------------------------------------------------
  // A static World is immutable after construction; the dynamics engine
  // (sim/mobility.h + channel/evolution.h) drives it through two mutators.
  // Neither is thread-safe — a dynamic world belongs to one session, just
  // like a lazy one.

  // Current position of a node (meters on the scenario floor).
  const channel::Location& node_position(std::size_t node) const;

  // Advances the physical world by dt_s: moves every node to positions[i],
  // then for each *materialized* pair applies
  //  * the large-scale update — median path loss at the new distance plus
  //    anchored Gudmundson shadowing: an AR(1) step in dB per traveled
  //    distance that geometrically decays the materialization draw while
  //    injecting matched innovation, keeping total shadowing variance at
  //    exactly the path-loss model's sigma^2 for all time (see PairDyn),
  //    and
  //  * the small-scale update — one Gauss-Markov tap-evolution step at
  //    rho = J0(2*pi*f_d*dt), f_d from the endpoints' realized speeds plus
  //    the config's environmental Doppler floor
  // and re-materializes the pair's per-subcarrier matrices and link SNR.
  // Every draw happens here, in key order. Eager pairs re-derive their
  // matrices here too (their link SNR averages the realized fading); a
  // lazy pair is only marked stale and re-derives its matrices from the
  // current taps on its next read (channel, refresh_csi, a first belief),
  // which yields the same bytes as re-deriving now. Reciprocity beliefs
  // are NOT refreshed (CSI measured in round t stays
  // pinned until refresh_csi, so it is stale by round t+k). Lazy pairs not
  // yet touched materialize later at the then-current geometry, with the
  // pair's accumulated shadowing offset applied, preserving the SNR/channel
  // seeding invariant at materialization time. With zero motion and zero
  // Doppler the call is an exact no-op and consumes no RNG draws.
  // Randomness comes from `rng` only (fork one dynamics stream per
  // session); draw order is the fixed pair-key order, never access order.
  void advance(const std::vector<channel::Location>& positions,
               const std::vector<double>& node_speed_mps, double dt_s,
               const channel::EvolutionConfig& evolution, util::Rng& rng);

  // Re-measures node a's reciprocal belief about the channel a -> b from
  // the channel as it is NOW (fresh estimation noise from `rng`, the pair's
  // fixed calibration error). Sessions call this for pairs that exchanged
  // a handshake/ACK this round; every other belief keeps aging. No-op for
  // pairs that never materialized a belief.
  void refresh_csi(std::size_t a, std::size_t b, util::Rng& rng);

  static constexpr std::size_t kSubcarriers = 48;

 private:
  // Lazy-mode materialization (config_.lazy_channels). Each helper forks a
  // fresh child off lazy_base_ by a pair-derived label, so what a pair
  // contains never depends on which pairs were touched before it.
  const std::vector<CMat>& lazy_channel(std::size_t a, std::size_t b) const;
  const std::vector<CMat>& lazy_recip(std::size_t a, std::size_t b) const;
  double lazy_link_snr_db(std::size_t a, std::size_t b) const;

  // Fills fwd[s] = H_s (lo -> hi) and rev[s] = H_s^T (hi -> lo) for every
  // data subcarrier from a pair's taps: the one place channel matrices are
  // derived (eager build, lazy materialization, stale re-derivation, eager
  // advance).
  void fill_pair(const channel::MimoChannel& ch, std::vector<CMat>& fwd,
                 std::vector<CMat>& rev) const;
  // Estimation noise from an explicit stream (refresh_csi / belief
  // derivation); estimate() keeps using the world's own stream.
  CMat estimate_with(const CMat& true_channel, util::Rng& rng) const;
  // Belief a -> b from the current reverse channel + a fixed calibration
  // matrix: shared by the lazy materialization path and refresh_csi.
  std::vector<CMat> derive_beliefs(const std::vector<CMat>& rev_chan,
                                   const CMat& cal, util::Rng& rng) const;
  // Re-derives an eager pair's per-subcarrier matrices and link SNR after
  // advance() changed its taps.
  void rematerialize_pair(std::uint64_t key, const channel::MimoChannel& ch);

  std::vector<NodeSpec> nodes_;
  WorldConfig config_;
  // The shared table for config_.fft_size: freq_response without
  // trigonometry.
  const channel::Twiddles* twiddles_;
  double noise_power_;
  mutable util::Rng rng_;
  // channels_[a][b][sc]: true channel a -> b.
  std::vector<std::vector<std::vector<CMat>>> channels_;
  // recip_[a][b][sc]: a's belief about channel a -> b.
  std::vector<std::vector<std::vector<CMat>>> recip_;
  std::vector<std::vector<double>> link_snr_db_;

  // Geometry (all modes; the dynamics engine moves testbed_ locations).
  channel::Testbed testbed_{std::vector<channel::Location>{}};
  std::vector<std::size_t> locations_;
  std::vector<std::uint8_t> roles_;

  // Tap-domain channel per unordered pair, keyed lo * n_nodes + hi: the
  // state Gauss-Markov evolution operates on (eager modes; lazy pairs keep
  // theirs inside LazyPair). Calibration errors are keyed a * n_nodes + b
  // (directed) and fixed for the world's lifetime — hardware doesn't
  // recalibrate because furniture moved.
  std::map<std::uint64_t, channel::MimoChannel> pair_taps_;
  mutable std::map<std::uint64_t, CMat> cal_;

  // Per-pair dynamics state, created at materialization. The pair's total
  // shadowing at any time is anchor * s0 + delta: s0 is the realized
  // materialization draw (recovered draw-free by peeking the stream),
  // anchor decays geometrically with traveled distance (Gudmundson rho),
  // and delta is the AR(1) innovation accumulator with variance
  // (1 - anchor^2) * sigma^2 — so total shadowing variance is EXACTLY the
  // path-loss model's sigma^2 at every time, and the correlation with the
  // materialization draw decays to zero (not to a floor).
  struct PairDyn {
    double prev_dist_m = 0.0;
    double shadow_s0_db = 0.0;    // realized shadowing at materialization
    double shadow_anchor = 1.0;   // current weight of s0
    double shadow_delta_db = 0.0; // accumulated innovation
    // Shadowing (dB) currently in effect relative to the materialization
    // draw: what late materializations must fold in.
    double shadow_offset_db() const {
      return (shadow_anchor - 1.0) * shadow_s0_db + shadow_delta_db;
    }
  };
  mutable std::map<std::uint64_t, PairDyn> dyn_;

  // Lazy-mode state (unused by the eager modes).
  struct LazyPair {
    channel::MimoChannel taps{std::vector<std::vector<channel::Samples>>{}};
    std::vector<CMat> fwd;  // lo -> hi, per subcarrier
    std::vector<CMat> rev;  // hi -> lo (transpose: reciprocity)
    bool stale = false;     // taps moved since fwd/rev were derived
  };
  util::Rng lazy_base_{0, 0};  // copied, never advanced, per fork
  mutable std::map<std::uint64_t, LazyPair> lazy_pairs_;
  mutable std::map<std::uint64_t, std::vector<CMat>> lazy_recip_;
  mutable std::map<std::uint64_t, double> lazy_snr_;
};

}  // namespace nplus::sim
