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
//
// Every mode keeps one table of node pairs (taps, one flat array of derived
// per-subcarrier channels, link SNR, dynamics ledger) and one of directed
// beliefs (one flat array each); eager and lazy worlds differ only in when a
// pair is drawn and from which stream.
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
  // pairwise channels. Rejects a node with zero antennas and a nonsensical
  // config with std::invalid_argument.
  //
  // `roles` (optional) enables the sparse mode the scenario engine uses for
  // generated large topologies: when non-empty (one NodeRole bitmask per
  // node), only pairs where one endpoint transmits and the other receives
  // get channels, reciprocity beliefs, and link SNRs — everything the round
  // builder ever touches — while rx-rx and tx-tx pairs stay unmaterialized.
  // A full N-node world holds O(N^2) pairs and beliefs of 48 channel
  // matrices each; with N_t transmitters and N_r receivers the sparse world
  // holds O(N_t * N_r), which is what makes 100-pair (200-node) worlds fit
  // in memory. An empty `roles` reproduces the dense behavior (and its RNG
  // stream) exactly. Accessing a channel, belief, or SNR for a masked-out
  // pair is a contract violation (asserted; SNR reads return -300 dB).
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
  // (0..47): an (antennas(b) x antennas(a)) matrix, copied out of the pair's
  // table (inline, no heap use, for up to 4x4).
  CMat channel(std::size_t a, std::size_t b, std::size_t sc) const;

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
  // Returned by value, like channel().
  CMat reciprocal_channel(std::size_t a, std::size_t b, std::size_t sc) const;

  // --- Dynamic networks --------------------------------------------------
  // An eager World that is never advanced is immutable after construction;
  // the dynamics engine (sim/mobility.h + channel/evolution.h) drives it
  // through two mutators. Neither is thread-safe, and reads after advance()
  // re-derive moved pairs — a dynamic world belongs to one session, just
  // like a lazy one.

  // Current position of a node (meters on the scenario floor).
  const channel::Location& node_position(std::size_t node) const;

  // Advances the physical world by dt_s: moves every node to positions[i],
  // then for each *materialized* pair applies
  //  * the large-scale update — median path loss at the new distance plus
  //    anchored Gudmundson shadowing: an AR(1) step in dB per traveled
  //    distance that geometrically decays the materialization draw while
  //    injecting matched innovation, keeping total shadowing variance at
  //    exactly the path-loss model's sigma^2 for all time (see Pair), and
  //  * the small-scale update — one Gauss-Markov tap-evolution step at
  //    rho = J0(2*pi*f_d*dt), f_d from the endpoints' realized speeds plus
  //    the config's environmental Doppler floor.
  // Every draw happens here, in key order; a changed pair is only marked
  // stale, in every mode. Its next read (channel, link SNR, refresh_csi, a
  // first belief) re-derives the per-subcarrier matrices — and an eager
  // pair's fading-averaged link SNR — from the taps as they are then: taps
  // change only here, so that yields the same bytes as re-deriving now.
  // A lazy pair's budget SNR shifts by the large-scale delta at once.
  // Reciprocity beliefs are NOT refreshed (CSI measured in round t stays
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
  // One unordered pair lo < hi, keyed lo * n_nodes + hi, in every mode. The
  // modes differ only in when a pair is drawn and from which stream: an
  // eager world draws every active pair at construction from the caller's
  // stream; a lazy world draws a pair on first read from a child forked off
  // lazy_base_ by the pair's key, so what it contains never depends on
  // which pairs were touched before it.
  struct Pair {
    // Dynamics ledger, filled when the entry is created. The pair's total
    // shadowing at any time is anchor * s0 + delta: s0 is the realized
    // materialization draw (recovered draw-free by peeking the stream),
    // anchor decays geometrically with traveled distance (Gudmundson rho),
    // and delta is the AR(1) innovation accumulator with variance
    // (1 - anchor^2) * sigma^2 — so total shadowing variance is EXACTLY the
    // path-loss model's sigma^2 at every time, and the correlation with the
    // materialization draw decays to zero (not to a floor).
    double prev_dist_m = 0.0;
    double shadow_s0_db = 0.0;    // realized shadowing at materialization
    double shadow_anchor = 1.0;   // current weight of s0
    double shadow_delta_db = 0.0; // accumulated innovation
    // Shadowing (dB) currently in effect relative to the materialization
    // draw: what late materializations must fold in.
    double shadow_offset_db() const {
      return (shadow_anchor - 1.0) * shadow_s0_db + shadow_delta_db;
    }

    // Tap-domain channel (the state evolution operates on) and the
    // per-subcarrier channels derived from it: H_s (lo -> hi, N_hi x M_lo)
    // for s = 0..47, each row-major, one after another — entry (r, c) of
    // H_s at h[(s * N_hi + r) * M_lo + c]. The read hi -> lo is its exact
    // transpose (reciprocity), so no second copy is kept.
    bool has_channel = false;
    bool stale = false;     // taps moved since h was derived
    channel::MimoChannel taps{std::vector<std::vector<channel::Samples>>{}};
    std::vector<cdouble> h;

    // Link SNR in dB: an eager world stores the fading average of h
    // (re-derived with it), a lazy world the pathloss+shadowing budget.
    bool has_snr = false;
    double snr_db = -300.0;
  };
  // Node a's belief about the channel a -> b, keyed a * n_nodes + b: its
  // N_b x M_a matrix for s = 0..47 in Pair::h's layout, then the N_b x M_a
  // calibration error, row-major. The calibration error is fixed for the
  // world's lifetime — hardware doesn't recalibrate because furniture
  // moved; refresh_csi re-draws only the 48 matrices.
  using Belief = std::vector<cdouble>;

  using Pairs = std::map<std::uint64_t, Pair>;

  std::uint64_t key(std::size_t a, std::size_t b) const {
    return static_cast<std::uint64_t>(a) * nodes_.size() + b;
  }
  // Creates pair lo < hi's entry before `hint`, with its dynamics ledger.
  Pairs::iterator add_pair(Pairs::iterator hint, std::size_t lo,
                           std::size_t hi, const util::Rng& stream) const;
  // Pair lo < hi's entry; a lazy world creates it on first read.
  Pair& entry(std::size_t lo, std::size_t hi) const;
  // Draws the pair's taps from `rng`, applies the ledger's shadowing
  // catch-up, and derives the channels.
  void materialize(Pair& pair, std::size_t lo, std::size_t hi,
                   util::Rng& rng) const;
  // pair.h from the taps, and an eager pair's link SNR: the one place they
  // are derived.
  void derive(Pair& pair) const;
  // Pair {a, b} with current channels: materializes a lazy pair on first
  // read and re-derives a stale one.
  Pair& fresh_pair(std::size_t a, std::size_t b) const;
  // Variance of the LS estimation noise per channel entry.
  double estimation_var() const;
  // Draws the calibration error for a -> b, then derives the belief.
  Belief measure_belief(std::size_t a, std::size_t b, util::Rng& rng) const;
  // Belief a -> b from the current reverse channel + its fixed calibration
  // matrix: shared by the first measurement and refresh_csi.
  void derive_beliefs(Belief& belief, std::size_t a, std::size_t b,
                      util::Rng& rng) const;

  std::vector<NodeSpec> nodes_;
  WorldConfig config_;
  // The shared table for config_.fft_size: freq_response without
  // trigonometry.
  const channel::Twiddles* twiddles_;
  double noise_power_;
  mutable util::Rng rng_;

  // Geometry (all modes; the dynamics engine moves testbed_ locations).
  channel::Testbed testbed_{std::vector<channel::Location>{}};
  std::vector<std::size_t> locations_;
  std::vector<std::uint8_t> roles_;

  util::Rng lazy_base_{0, 0};  // copied, never advanced, per fork
  mutable Pairs pairs_;
  mutable std::map<std::uint64_t, Belief> beliefs_;
};

}  // namespace nplus::sim
