#include "channel/mimo_channel.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <mutex>
#include <numbers>
#include <utility>

#include "dsp/signal.h"
#include "phy/ofdm_params.h"
#include "util/units.h"

namespace nplus::channel {

MimoChannel::MimoChannel(std::size_t n_rx, std::size_t n_tx,
                         double gain_linear, const ChannelProfile& profile,
                         util::Rng& rng) {
  // Tap power profile, normalized to sum 1, then scaled by the link gain.
  std::vector<double> tap_power(profile.n_taps);
  double total = 0.0;
  for (std::size_t l = 0; l < profile.n_taps; ++l) {
    tap_power[l] = util::from_db(-profile.decay_per_tap_db *
                                 static_cast<double>(l));
    total += tap_power[l];
  }
  for (auto& p : tap_power) p *= gain_linear / total;

  const double k_lin =
      profile.line_of_sight ? util::from_db(profile.rician_k_db) : 0.0;

  // Remember the marginal statistics for evolve(): the scattered power per
  // tap, and (Rician links) the fixed LoS component per antenna pair.
  scatter_power_ = tap_power;
  if (profile.line_of_sight) {
    scatter_power_[0] = tap_power[0] / (k_lin + 1.0);
    los_tap0_.assign(n_rx, std::vector<cdouble>(n_tx, cdouble{0.0, 0.0}));
  }

  taps_.resize(n_rx);
  for (std::size_t r = 0; r < n_rx; ++r) {
    taps_[r].resize(n_tx);
    for (std::size_t t = 0; t < n_tx; ++t) {
      Samples h(profile.n_taps);
      for (std::size_t l = 0; l < profile.n_taps; ++l) {
        if (l == 0 && profile.line_of_sight) {
          // Rician first tap: deterministic LoS component (random phase per
          // antenna pair, as geometry dictates) + scattered component.
          const double p_los = tap_power[0] * k_lin / (k_lin + 1.0);
          const double p_nlos = tap_power[0] / (k_lin + 1.0);
          // Draw order (scattered part first, then the LoS phase) matches
          // the original right-to-left evaluation of the one-expression
          // form — golden traces pin the stream.
          const cdouble scattered = rng.cgaussian(p_nlos);
          const cdouble los = std::sqrt(p_los) * rng.phase();
          los_tap0_[r][t] = los;
          h[l] = los + scattered;
        } else {
          h[l] = rng.cgaussian(tap_power[l]);
        }
      }
      taps_[r][t] = std::move(h);
    }
  }
}

MimoChannel::MimoChannel(std::vector<std::vector<Samples>> taps)
    : taps_(std::move(taps)) {}

namespace {

// e^{-j*2*pi*bin*l/N}: the one expression every twiddle comes from.
cdouble twiddle(std::size_t bin, std::size_t l, std::size_t fft_size) {
  const double ang = -2.0 * std::numbers::pi * static_cast<double>(bin) *
                     static_cast<double>(l) / static_cast<double>(fft_size);
  return cdouble{std::cos(ang), std::sin(ang)};
}

}  // namespace

Twiddles::Twiddles(std::size_t fft_size, std::size_t n_taps)
    : fft_size_(fft_size), n_taps_(n_taps), w_(fft_size * n_taps) {
  assert(fft_size >= 53);
  for (std::size_t bin = 0; bin < fft_size; ++bin) {
    for (std::size_t l = 0; l < n_taps; ++l) {
      w_[bin * n_taps + l] = twiddle(bin, l, fft_size);
    }
  }
}

const Twiddles& Twiddles::shared(std::size_t fft_size, std::size_t n_taps) {
  // Worlds are built on every worker thread. std::map nodes never move, so
  // a returned reference stays valid while other tables are added.
  static std::mutex mutex;
  static std::map<std::pair<std::size_t, std::size_t>, Twiddles> tables;
  const std::lock_guard<std::mutex> lock(mutex);
  const auto key = std::make_pair(fft_size, n_taps);
  auto it = tables.find(key);
  if (it == tables.end()) {
    it = tables.emplace(key, Twiddles(fft_size, n_taps)).first;
  }
  return it->second;
}

const cdouble* Twiddles::row(int k) const {
  return &w_[phy::subcarrier_bin(k, fft_size_) * n_taps_];
}

void MimoChannel::response_from(const cdouble* twiddle_row,
                                std::size_t n_twiddles, cdouble* out) const {
  for (std::size_t r = 0; r < n_rx(); ++r) {
    for (std::size_t t = 0; t < n_tx(); ++t) {
      cdouble acc{0.0, 0.0};
      const auto& taps = taps_[r][t];
      assert(taps.size() <= n_twiddles);
      for (std::size_t l = 0; l < taps.size(); ++l) {
        acc += taps[l] * twiddle_row[l];
      }
      *out++ = acc;
    }
  }
}

void MimoChannel::freq_response_into(int k, const Twiddles& twiddles,
                                     cdouble* out) const {
  response_from(twiddles.row(k), twiddles.n_taps(), out);
}

CMat MimoChannel::freq_response(int k, std::size_t fft_size) const {
  std::size_t n_taps = 0;
  for (const auto& row : taps_) {
    for (const auto& pair : row) n_taps = std::max(n_taps, pair.size());
  }
  const std::size_t bin = phy::subcarrier_bin(k, fft_size);
  Samples w(n_taps);
  for (std::size_t l = 0; l < n_taps; ++l) w[l] = twiddle(bin, l, fft_size);
  CMat h(n_rx(), n_tx());
  response_from(w.data(), n_taps, h.data());
  return h;
}

std::vector<Samples> MimoChannel::propagate(
    const std::vector<Samples>& tx) const {
  assert(tx.size() == n_tx());
  std::vector<Samples> out(n_rx());
  for (std::size_t r = 0; r < n_rx(); ++r) {
    Samples acc;
    for (std::size_t t = 0; t < n_tx(); ++t) {
      const Samples y = nplus::dsp::convolve(tx[t], taps_[r][t]);
      nplus::dsp::mix_into(acc, y);
    }
    out[r] = std::move(acc);
  }
  return out;
}

MimoChannel MimoChannel::reverse(double calibration_error_std,
                                 util::Rng& rng) const {
  std::vector<std::vector<Samples>> rev(n_tx());
  for (std::size_t t = 0; t < n_tx(); ++t) {
    rev[t].resize(n_rx());
    for (std::size_t r = 0; r < n_rx(); ++r) {
      Samples taps = taps_[r][t];  // transpose: swap roles
      if (calibration_error_std > 0.0) {
        // Residual calibration error: one complex multiplicative error per
        // antenna pair (the hardware chains are frequency-flat relative to
        // the 10 MHz channel), applied to all taps of the pair.
        const cdouble err = cdouble{1.0, 0.0} +
                            rng.cgaussian(calibration_error_std *
                                          calibration_error_std);
        for (auto& tap : taps) tap *= err;
      }
      rev[t][r] = std::move(taps);
    }
  }
  return MimoChannel(std::move(rev));
}

void MimoChannel::evolve(double rho, util::Rng& rng) {
  assert(can_evolve());
  if (rho >= 1.0) return;
  rho = std::max(rho, 0.0);
  const double innov = 1.0 - rho * rho;
  for (std::size_t r = 0; r < n_rx(); ++r) {
    for (std::size_t t = 0; t < n_tx(); ++t) {
      Samples& h = taps_[r][t];
      for (std::size_t l = 0; l < h.size(); ++l) {
        const cdouble los = (l == 0 && !los_tap0_.empty())
                                ? los_tap0_[r][t]
                                : cdouble{0.0, 0.0};
        const cdouble scattered = h[l] - los;
        h[l] = los + rho * scattered +
               rng.cgaussian(innov * scatter_power_[l]);
      }
    }
  }
}

void MimoChannel::scale_gain(double factor) {
  assert(factor > 0.0);
  if (factor == 1.0) return;
  const double amp = std::sqrt(factor);
  for (auto& row : taps_) {
    for (auto& pair : row) {
      for (auto& tap : pair) tap *= amp;
    }
  }
  for (auto& row : los_tap0_) {
    for (auto& los : row) los *= amp;
  }
  for (auto& p : scatter_power_) p *= factor;
}

double MimoChannel::mean_gain() const {
  double acc = 0.0;
  std::size_t n = 0;
  for (const auto& row : taps_) {
    for (const auto& pair : row) {
      double p = 0.0;
      for (const auto& tap : pair) p += std::norm(tap);
      acc += p;
      ++n;
    }
  }
  return n ? acc / static_cast<double>(n) : 0.0;
}

}  // namespace nplus::channel
