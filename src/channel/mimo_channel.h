// Frequency-selective MIMO channel model.
//
// Each (rx antenna, tx antenna) pair carries an independent tapped-delay-line
// Rayleigh channel with an exponential power-delay profile — the standard
// indoor NLoS model (and the reason the paper operates per OFDM subcarrier:
// §4 "Multipath"). The per-subcarrier frequency response H_k is the DFT of
// the taps; n+'s nulling/alignment math consumes exactly these matrices.
//
// Reciprocity (§2): the reverse channel equals the transpose of the forward
// channel. Real hardware adds per-antenna transmit/receive chain gains that
// break raw reciprocity; after relative calibration a small residual error
// remains. reverse() models both: ideal transposition plus a configurable
// multiplicative calibration error — the knob that bounds nulling depth at
// the paper's measured 25-27 dB.
#pragma once

#include <vector>

#include "linalg/mat.h"
#include "util/rng.h"

namespace nplus::channel {

using linalg::CMat;
using linalg::cdouble;
using Samples = std::vector<cdouble>;

struct ChannelProfile {
  // Office delay spreads are 50-150 ns; at the 10 MS/s testbed sample rate
  // (100 ns/tap) that is ~1.5 effective taps: three taps with a steep 6 dB
  // decay. (Richer profiles make the 10 MHz channel unrealistically
  // frequency-selective.)
  std::size_t n_taps = 3;
  double decay_per_tap_db = 6.0; // exponential power-delay profile slope
  bool line_of_sight = false;    // adds a deterministic strong first tap
  double rician_k_db = 6.0;      // LoS K-factor when line_of_sight
};

// DFT twiddles e^{-j*2*pi*bin*l/N} for every FFT bin of an N-point grid and
// taps l < n_taps: the kernel freq_response applies to tap l. Each entry
// comes from the same expression the per-element formula evaluates, so
// table-driven responses are bit-identical to it. Immutable after
// construction.
class Twiddles {
 public:
  // Requires fft_size >= 53: a shorter grid cannot hold the 52 used
  // subcarriers (phy::subcarrier_bin).
  Twiddles(std::size_t fft_size, std::size_t n_taps);

  // The process-wide table for (fft_size, n_taps), built on the first
  // request and kept for the life of the process; safe from any thread.
  // Every sim::World reads its grid's table through this, so building a
  // world costs no trigonometry.
  static const Twiddles& shared(std::size_t fft_size, std::size_t n_taps);

  std::size_t fft_size() const { return fft_size_; }
  std::size_t n_taps() const { return n_taps_; }

  // The n_taps() twiddles of logical OFDM subcarrier k (-26..26, k != 0).
  const cdouble* row(int k) const;

 private:
  std::size_t fft_size_;
  std::size_t n_taps_;
  std::vector<cdouble> w_;  // [bin * n_taps + l]
};

class MimoChannel {
 public:
  // Random channel between an M-antenna transmitter and N-antenna receiver
  // with total average power gain `gain_linear` (from the path-loss model).
  MimoChannel(std::size_t n_rx, std::size_t n_tx, double gain_linear,
              const ChannelProfile& profile, util::Rng& rng);

  // Explicit taps: taps[rx][tx] is the impulse response of that pair.
  MimoChannel(std::vector<std::vector<Samples>> taps);

  std::size_t n_rx() const { return taps_.size(); }
  std::size_t n_tx() const { return taps_.empty() ? 0 : taps_[0].size(); }

  // Frequency response at logical OFDM subcarrier k (-26..26, k != 0) for
  // an `fft_size`-point grid: an n_rx x n_tx matrix.
  CMat freq_response(int k, std::size_t fft_size = 64) const;
  // The same from a precomputed table (no trigonometry), written row-major
  // to out[0 .. n_rx * n_tx); the table must cover every tap of the
  // channel.
  void freq_response_into(int k, const Twiddles& twiddles,
                          cdouble* out) const;

  // Propagates per-tx-antenna sample streams: output[rx] = sum_tx conv(x_tx,
  // taps[rx][tx]). Output length = input length + n_taps - 1.
  std::vector<Samples> propagate(const std::vector<Samples>& tx) const;

  // Reverse (rx->tx) channel via reciprocity. `calibration_error_std` is the
  // per-tap relative multiplicative error left after hardware calibration
  // (0 = ideal reciprocity).
  MimoChannel reverse(double calibration_error_std, util::Rng& rng) const;

  // Average power gain over taps and antenna pairs (diagnostic).
  double mean_gain() const;

  const std::vector<std::vector<Samples>>& taps() const { return taps_; }

  // --- Temporal evolution (see channel/evolution.h) ----------------------

  // True for channels drawn by the random constructor, which remembers each
  // tap's marginal scattered power (and the fixed LoS component, if any) —
  // the statistics evolve() needs. Channels assembled from explicit taps
  // (e.g. reverse()) cannot evolve; re-derive them from the evolved forward
  // channel instead.
  bool can_evolve() const { return !scatter_power_.empty(); }

  // One Gauss-Markov step: every scattered tap moves to
  //   s' = rho * s + w,  w ~ CN(0, (1 - rho^2) * p_tap),
  // where p_tap is the tap's marginal scattered power, so the channel's
  // distribution (Rayleigh/Rician mix, power-delay profile, total gain) is
  // invariant under evolution while samples decorrelate at rate rho. The
  // deterministic LoS component of a Rician first tap is held fixed — the
  // direct path's geometry changes on path-loss scales, not fading scales.
  // rho >= 1 is a no-op and consumes no draws. Asserts can_evolve().
  void evolve(double rho, util::Rng& rng);

  // Rescales the channel's total mean power by `factor` (linear): taps and
  // the LoS component by sqrt(factor), marginal powers by factor. Used by
  // sim::World when motion changes a pair's path loss / shadowing.
  void scale_gain(double factor);

 private:
  // H from one subcarrier's twiddle row (at least as long as every pair's
  // impulse response), written row-major to `out`.
  void response_from(const cdouble* twiddle_row, std::size_t n_twiddles,
                     cdouble* out) const;

  std::vector<std::vector<Samples>> taps_;  // [rx][tx][tap]
  // Evolution statistics, filled by the random constructor only.
  std::vector<double> scatter_power_;       // marginal scattered power per tap
  std::vector<std::vector<cdouble>> los_tap0_;  // [rx][tx]; empty = NLoS
};

}  // namespace nplus::channel
