#include "phy/channel_est.h"

#include <algorithm>
#include <cassert>

#include <map>
#include <mutex>
#include <numbers>

#include "dsp/fft.h"
#include "linalg/decomp.h"
#include "linalg/simd/batch.h"
#include "linalg/simd/kernels.h"
#include "phy/ofdm.h"
#include "phy/preamble.h"

namespace nplus::phy {

ChannelEstimate estimate_from_ltf(const Samples& rx, std::size_t ltf_offset,
                                  const OfdmParams& params) {
  ChannelEstimate est;
  std::vector<cdouble> scratch;
  estimate_from_ltf_into(rx, ltf_offset,
                         nplus::dsp::shared_plan(params.scaled_fft()), scratch,
                         est, params);
  return est;
}

void estimate_from_ltf_into(const Samples& rx, std::size_t ltf_offset,
                            const dsp::FftPlan& plan,
                            std::vector<cdouble>& scratch, ChannelEstimate& out,
                            const OfdmParams& params) {
  // LTF layout: [2*cp CP][symbol 1][symbol 2]; FFT windows start after the
  // double CP. The LTF symbols carry no data CP of their own, so the
  // demodulator windows land directly on the symbol starts; both windows go
  // into one scratch buffer and through one batched transform.
  const std::size_t cp = params.scaled_cp();
  const std::size_t n = params.scaled_fft();
  const std::size_t sym1 = ltf_offset + 2 * cp;
  assert(sym1 + 2 * n <= rx.size());
  assert(plan.size() == n);

  scratch.resize(2 * n);
  std::copy(rx.begin() + static_cast<long>(sym1),
            rx.begin() + static_cast<long>(sym1 + 2 * n), scratch.begin());
  plan.forward_batch(scratch.data(), 2);
  const cdouble* b1 = scratch.data();
  const cdouble* b2 = scratch.data() + n;

  // The time-domain LTF was normalized to unit mean power: for 52 unit bins
  // the raw IFFT output has mean power 52/n^2, so the normalization factor
  // is n/sqrt(52) and the FFT of the transmitted LTF returns L_k * n/sqrt(52)
  // — the same net scale the data modulator applies. Divide it back out.
  const double g = static_cast<double>(n) /
                   std::sqrt(static_cast<double>(params.used_subcarriers()));

  // The two-symbol average runs lane-parallel over the used subcarriers
  // (the batched halfsum is the scalar `0.5 * (b1 + b2)` per lane — IEEE
  // multiply commutes, so (x + y) * 0.5 reproduces 0.5 * (x + y) bit for
  // bit). The per-subcarrier complex division stays scalar: std::complex
  // division lowers to the compiler runtime's __divdc3 and must execute
  // identically no matter which kernel target is active. Workspaces are
  // thread-local so the warmed-up estimator performs zero allocations
  // (pinned by the zero-alloc suite).
  const auto& lf = ltf_freq();
  static thread_local std::vector<int> lane_k;
  static thread_local linalg::simd::CBatch b1b, b2b, avgb;
  lane_k.clear();
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    const cdouble l = lf[static_cast<std::size_t>(k + 26)];
    if (l == cdouble{0.0, 0.0}) {
      out.at(k) = cdouble{0.0, 0.0};
      continue;
    }
    lane_k.push_back(k);
  }
  const std::size_t lanes = lane_k.size();
  b1b.resize(1, 1, lanes);
  b2b.resize(1, 1, lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    const std::size_t bin = subcarrier_bin(lane_k[l], n);
    b1b.re()[l] = b1[bin].real();
    b1b.im()[l] = b1[bin].imag();
    b2b.re()[l] = b2[bin].real();
    b2b.im()[l] = b2[bin].imag();
  }
  linalg::simd::halfsum(b1b, b2b, avgb);
  for (std::size_t l = 0; l < lanes; ++l) {
    const int k = lane_k[l];
    const cdouble lk = lf[static_cast<std::size_t>(k + 26)];
    const cdouble avg{avgb.re()[l], avgb.im()[l]};
    out.at(k) = avg / (lk * g);
  }
  out.at(0) = cdouble{0.0, 0.0};
}

ChannelEstimate smooth_to_taps(const ChannelEstimate& est,
                               std::size_t n_taps, std::size_t fft_size) {
  namespace la = nplus::linalg;
  // DFT basis restricted to the used subcarriers: F(k_i, l) = e^{-j2pi k l/N}.
  // The pseudo-inverse depends only on (n_taps, fft_size); cache it together
  // with F. The experiment harness calls this concurrently, so lookups and
  // inserts are serialized; std::map node references stay valid across
  // later inserts, so the returned Basis is safe to use outside the lock.
  struct Basis {
    la::CMat f;
    la::CMat f_pinv;
  };
  static std::mutex cache_mutex;
  static std::map<std::pair<std::size_t, std::size_t>, Basis> cache;
  std::unique_lock<std::mutex> cache_lock(cache_mutex);
  const auto key = std::make_pair(n_taps, fft_size);
  auto it = cache.find(key);
  if (it == cache.end()) {
    std::vector<int> used;
    for (int k = -26; k <= 26; ++k) {
      if (k != 0) used.push_back(k);
    }
    la::CMat f(used.size(), n_taps);
    for (std::size_t i = 0; i < used.size(); ++i) {
      const auto bin = static_cast<double>(subcarrier_bin(used[i], fft_size));
      for (std::size_t l = 0; l < n_taps; ++l) {
        const double ang = -2.0 * std::numbers::pi * bin *
                           static_cast<double>(l) /
                           static_cast<double>(fft_size);
        f(i, l) = cdouble{std::cos(ang), std::sin(ang)};
      }
    }
    it = cache.emplace(key, Basis{f, la::pinv(f)}).first;
  }
  const Basis& basis = it->second;
  cache_lock.unlock();

  // h_taps = F^+ h_subcarriers; smoothed = F h_taps. The 52-element
  // observation vector exceeds the inline-buffer capacity, so reuse
  // thread-lifetime workspace instead of reallocating per call.
  static thread_local la::CVec obs, taps, smoothed;
  obs.resize(52);
  std::size_t idx = 0;
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    obs[idx++] = est.at(k);
  }
  la::mul_into(basis.f_pinv, obs, taps);
  la::mul_into(basis.f, taps, smoothed);

  ChannelEstimate out;
  idx = 0;
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    out.at(k) = smoothed[idx++];
  }
  return out;
}

double mean_channel_gain(const ChannelEstimate& est) {
  double s = 0.0;
  int count = 0;
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    s += std::norm(est.at(k));
    ++count;
  }
  return count ? s / count : 0.0;
}

}  // namespace nplus::phy
