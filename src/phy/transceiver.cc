#include "phy/transceiver.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "dsp/fft.h"
#include "linalg/decomp.h"
#include "linalg/simd/batch.h"
#include "linalg/simd/kernels.h"
#include "linalg/subspace.h"
#include "phy/ofdm.h"

namespace nplus::phy {

namespace {

using linalg::CMat;
using linalg::CVec;

// Common amplitude scale applied to every time-domain section so that unit
// frequency-domain symbols produce unit mean transmit power (see ofdm.cc).
double time_scale(const OfdmParams& params) {
  const double n = static_cast<double>(params.scaled_fft());
  return n / std::sqrt(static_cast<double>(params.used_subcarriers()));
}

// IFFT of 53 logical-subcarrier values appended to `out` as a CP-prefixed
// symbol (cp_len may be 0). `bins` is caller-held scaled_fft()-sized
// scratch; with it and a caller-held plan the per-symbol synthesis performs
// zero heap allocations beyond `out` growth (and none at all once `out` is
// reserved).
void append_logical_symbol(const std::vector<cdouble>& logical,
                           std::size_t cp_len, const OfdmParams& params,
                           const dsp::FftPlan& plan, std::vector<cdouble>& bins,
                           Samples& out) {
  const std::size_t n = params.scaled_fft();
  std::fill(bins.begin(), bins.end(), cdouble{0.0, 0.0});
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    bins[subcarrier_bin(k, n)] = logical[static_cast<std::size_t>(k + 26)];
  }
  plan.inverse(bins.data());
  const double c = time_scale(params);
  for (auto& v : bins) v *= c;
  if (cp_len > 0) {
    out.insert(out.end(), bins.end() - static_cast<long>(cp_len), bins.end());
  }
  out.insert(out.end(), bins.begin(), bins.end());
}

}  // namespace

PrecodingPlan PrecodingPlan::direct(std::size_t n_antennas,
                                    std::size_t n_streams) {
  assert(n_streams <= n_antennas);
  CMat v(n_antennas, n_streams);
  for (std::size_t i = 0; i < n_streams; ++i) v(i, i) = cdouble{1.0, 0.0};
  return uniform(v);
}

PrecodingPlan PrecodingPlan::uniform(const linalg::CMat& v_all) {
  PrecodingPlan plan;
  plan.v.assign(53, v_all);
  return plan;
}

std::size_t TxFrame::stf_len() const {
  return 10 * (params.scaled_fft() / 4);
}

std::size_t TxFrame::ltf_slot_len() const {
  return 2 * params.scaled_cp() + 2 * params.scaled_fft();
}

std::size_t TxFrame::data_offset() const {
  return stf_len() + n_streams * ltf_slot_len();
}

std::size_t TxFrame::total_len() const {
  return data_offset() + n_data_symbols * params.symbol_len();
}

TxFrame build_tx_frame(const std::vector<std::vector<cdouble>>& stream_symbols,
                       const PrecodingPlan& plan, const OfdmParams& params) {
  const std::size_t n_streams = stream_symbols.size();
  const std::size_t n_ant = plan.n_antennas();
  assert(n_streams >= 1 && plan.n_streams() == n_streams);

  // Pad every stream to the longest stream's symbol count.
  std::size_t max_syms = 0;
  for (const auto& s : stream_symbols) {
    assert(s.size() % params.n_data_subcarriers == 0);
    max_syms = std::max(max_syms, s.size() / params.n_data_subcarriers);
  }

  TxFrame frame;
  frame.params = params;
  frame.n_streams = n_streams;
  frame.n_data_symbols = max_syms;
  frame.antennas.assign(n_ant, Samples{});
  for (auto& a : frame.antennas) a.reserve(frame.total_len());

  const std::size_t n = params.scaled_fft();
  const std::size_t cp = params.scaled_cp();

  // Workspace hoisted out of every per-antenna / per-symbol loop below.
  const dsp::FftPlan& fft_plan = dsp::shared_plan(n);
  std::vector<cdouble> bins(n);
  std::vector<cdouble> logical(53);
  Samples sym;
  sym.reserve(2 * cp + n);

  // --- STF, precoded with stream 0's vectors (sqrt(2) boost equalizes the
  // 12-carrier STF power with the 52-carrier sections). One 64-sample period
  // tiled to 10 short symbols (2.5 periods).
  {
    const auto& sf = stf_freq();
    for (std::size_t a = 0; a < n_ant; ++a) {
      std::fill(logical.begin(), logical.end(), cdouble{0.0, 0.0});
      for (int k = -26; k <= 26; ++k) {
        if (k == 0) continue;
        const cdouble s = sf[static_cast<std::size_t>(k + 26)];
        if (s == cdouble{0.0, 0.0}) continue;
        logical[static_cast<std::size_t>(k + 26)] =
            std::sqrt(2.0) * s * plan.at(k)(a, 0);
      }
      sym.clear();
      append_logical_symbol(logical, 0, params, fft_plan, bins, sym);
      // 2 full periods + half period = 160 samples at n = 64.
      auto& out = frame.antennas[a];
      out.insert(out.end(), sym.begin(), sym.end());
      out.insert(out.end(), sym.begin(), sym.end());
      out.insert(out.end(), sym.begin(), sym.begin() + static_cast<long>(n / 2));
    }
  }

  // --- Per-stream LTF slots.
  const auto& lf = ltf_freq();
  for (std::size_t i = 0; i < n_streams; ++i) {
    for (std::size_t a = 0; a < n_ant; ++a) {
      std::fill(logical.begin(), logical.end(), cdouble{0.0, 0.0});
      for (int k = -26; k <= 26; ++k) {
        if (k == 0) continue;
        logical[static_cast<std::size_t>(k + 26)] =
            lf[static_cast<std::size_t>(k + 26)] * plan.at(k)(a, i);
      }
      sym.clear();
      append_logical_symbol(logical, 0, params, fft_plan, bins, sym);
      // Double CP + two symbol repetitions.
      auto& out = frame.antennas[a];
      out.insert(out.end(), sym.end() - static_cast<long>(2 * cp), sym.end());
      out.insert(out.end(), sym.begin(), sym.end());
      out.insert(out.end(), sym.begin(), sym.end());
    }
  }

  // --- Data symbols.
  static const auto data_sc = data_subcarriers();
  for (std::size_t t = 0; t < max_syms; ++t) {
    const double pol = pilot_polarity(t);
    const auto& pp = pilot_pattern();
    for (std::size_t a = 0; a < n_ant; ++a) {
      std::fill(logical.begin(), logical.end(), cdouble{0.0, 0.0});
      // Data subcarriers: superpose all streams through the precoder.
      for (std::size_t i = 0; i < params.n_data_subcarriers; ++i) {
        const int k = data_sc[i];
        cdouble acc{0.0, 0.0};
        for (std::size_t j = 0; j < n_streams; ++j) {
          const auto& sj = stream_symbols[j];
          const std::size_t idx = t * params.n_data_subcarriers + i;
          const cdouble sym_val =
              idx < sj.size() ? sj[idx] : cdouble{0.0, 0.0};
          acc += plan.at(k)(a, j) * sym_val;
        }
        logical[static_cast<std::size_t>(k + 26)] = acc;
      }
      // Pilots ride stream 0's precoder so they obey the same nulling and
      // alignment constraints as the data.
      for (std::size_t i = 0; i < kPilotSubcarriers.size(); ++i) {
        const int k = kPilotSubcarriers[i];
        logical[static_cast<std::size_t>(k + 26)] =
            plan.at(k)(a, 0) * cdouble{pol * pp[i], 0.0};
      }
      append_logical_symbol(logical, cp, params, fft_plan, bins,
                            frame.antennas[a]);
    }
  }
  return frame;
}

TxFrame build_tx_frame_bytes(
    const std::vector<std::vector<std::uint8_t>>& stream_payloads,
    const Mcs& mcs, const PrecodingPlan& plan, const OfdmParams& params) {
  std::vector<std::vector<cdouble>> symbols;
  symbols.reserve(stream_payloads.size());
  for (const auto& p : stream_payloads) {
    symbols.push_back(encode_payload(p, mcs));
  }
  return build_tx_frame(symbols, plan, params);
}

EffectiveChannels estimate_effective_channels(const std::vector<Samples>& rx,
                                              std::size_t frame_start,
                                              std::size_t n_streams,
                                              const OfdmParams& params) {
  const std::size_t n_rx = rx.size();
  const std::size_t stf = 10 * (params.scaled_fft() / 4);
  const std::size_t slot = 2 * params.scaled_cp() + 2 * params.scaled_fft();

  // Per-call workspace: one plan, one scratch buffer, one estimate reused
  // across all (stream, antenna) pairs.
  const dsp::FftPlan& plan = dsp::shared_plan(params.scaled_fft());
  std::vector<cdouble> scratch;
  ChannelEstimate est;

  EffectiveChannels channels(53, CMat(n_rx, n_streams));
  for (std::size_t i = 0; i < n_streams; ++i) {
    const std::size_t off = frame_start + stf + i * slot;
    for (std::size_t a = 0; a < n_rx; ++a) {
      estimate_from_ltf_into(rx[a], off, plan, scratch, est, params);
      for (int k = -26; k <= 26; ++k) {
        if (k == 0) continue;
        channels[static_cast<std::size_t>(k + 26)](a, i) = est.at(k);
      }
    }
  }
  return channels;
}

InterferenceMap no_interference(std::size_t n_rx) {
  return InterferenceMap(53, CMat(n_rx, 0));
}

InterferenceMap stack_interference(const InterferenceMap& base,
                                   const EffectiveChannels& add) {
  InterferenceMap out(53, CMat{});
  for (std::size_t i = 0; i < 53; ++i) {
    out[i] = base[i].hstack(add[i]);
  }
  return out;
}

namespace {

// Per-subcarrier equalizer: projection onto the interference-free subspace
// followed by zero-forcing of the frame's streams.
struct SubcarrierEq {
  CMat combiner;          // n_streams x n_rx: s_hat = combiner * y
  std::vector<double> noise_gain;  // per stream: ||row||^2 (noise variance
                                   // multiplier after equalization)
  bool ok = false;
};

SubcarrierEq equalizer_from_projected(const CMat& w, const CMat& g_proj) {
  SubcarrierEq eq;
  const std::size_t n_streams = g_proj.cols();
  if (w.cols() < n_streams) return eq;
  const CMat z = linalg::pinv(g_proj);            // (n_streams x d)
  eq.combiner = z * w.hermitian();                // (n_streams x n_rx)
  eq.noise_gain.resize(n_streams, 0.0);
  for (std::size_t j = 0; j < n_streams; ++j) {
    eq.noise_gain[j] = eq.combiner.row(j).norm_sq();
  }
  eq.ok = true;
  return eq;
}

// Builds per-subcarrier equalizers with *projected-space* channel
// estimation: the receiver first projects each LTF observation onto the
// orthogonal complement of the known interference, then least-squares
// estimates the effective channel there. This is how a receiver estimates a
// joiner's preamble that is concurrent with ongoing transmissions (§3.2:
// "tx3 can decode q using standard decoders" after projecting).
std::vector<SubcarrierEq> make_projected_equalizers(
    const std::vector<Samples>& rx, std::size_t frame_start,
    std::size_t n_streams, const InterferenceMap& interference,
    const OfdmParams& params) {
  const std::size_t n_rx = rx.size();
  const std::size_t n = params.scaled_fft();
  const std::size_t cp = params.scaled_cp();
  const std::size_t stf = 10 * (n / 4);
  const std::size_t slot = 2 * cp + 2 * n;

  // Interference-free bases per subcarrier.
  std::vector<CMat> w(53);
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    w[static_cast<std::size_t>(k + 26)] = linalg::orthogonal_complement(
        interference[static_cast<std::size_t>(k + 26)]);
  }

  // Projected LTF estimation per stream slot.
  const double scale = time_scale(params);
  const auto& lf = ltf_freq();
  std::vector<CMat> g_proj(53);
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    const std::size_t ki = static_cast<std::size_t>(k + 26);
    g_proj[ki] = CMat(w[ki].cols(), n_streams);
  }

  // Workspace hoisted out of the per-stream / per-repetition / per-
  // subcarrier loops: the FFT windows of all antennas (transformed in one
  // batch), the received vector, and its projected coordinates.
  const dsp::FftPlan& plan = dsp::shared_plan(n);
  std::vector<cdouble> bins(n_rx * n);
  CVec y;
  CVec proj;

  for (std::size_t i = 0; i < n_streams; ++i) {
    const std::size_t slot_off = frame_start + stf + i * slot;
    // Two repeated LTF symbols after the double CP.
    for (int rep = 0; rep < 2; ++rep) {
      const std::size_t sym_off =
          slot_off + 2 * cp + static_cast<std::size_t>(rep) * n;
      if (sym_off + n > rx[0].size()) return {};
      for (std::size_t a = 0; a < n_rx; ++a) {
        std::copy(rx[a].begin() + static_cast<long>(sym_off),
                  rx[a].begin() + static_cast<long>(sym_off + n),
                  bins.begin() + static_cast<long>(a * n));
      }
      plan.forward_batch(bins.data(), n_rx);
      for (int k = -26; k <= 26; ++k) {
        if (k == 0) continue;
        const std::size_t ki = static_cast<std::size_t>(k + 26);
        const cdouble l = lf[ki];
        if (l == cdouble{0.0, 0.0}) continue;
        const std::size_t bin = subcarrier_bin(k, n);
        y.resize(n_rx);
        for (std::size_t a = 0; a < n_rx; ++a) {
          y[a] = bins[a * n + bin];
        }
        linalg::coordinates_in_into(w[ki], y, proj);
        for (std::size_t d = 0; d < proj.size(); ++d) {
          g_proj[ki](d, i) += proj[d] / (l * scale) * cdouble{0.5, 0.0};
        }
      }
    }
  }

  std::vector<SubcarrierEq> eq(53);
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    const std::size_t ki = static_cast<std::size_t>(k + 26);
    eq[ki] = equalizer_from_projected(w[ki], g_proj[ki]);
  }
  return eq;
}

// Demodulates every antenna's data symbols in one batched transform each;
// returns the number of symbols that fully fit on all antennas.
std::size_t demod_all_antennas(const std::vector<Samples>& rx,
                               std::size_t data_off, std::size_t n_syms,
                               const dsp::FftPlan& plan,
                               std::vector<std::vector<cdouble>>& all_bins,
                               const OfdmParams& params) {
  all_bins.resize(rx.size());
  std::size_t fit = n_syms;
  for (std::size_t a = 0; a < rx.size(); ++a) {
    fit = std::min(fit, ofdm_demod_symbols_into(rx[a], data_off, n_syms, plan,
                                                all_bins[a], params));
  }
  return fit;
}

// Gathers the cross-antenna receive vector of one subcarrier bin of symbol
// t into `y` (allocation-free once y has capacity).
void gather_rx_vector(const std::vector<std::vector<cdouble>>& all_bins,
                      std::size_t t, std::size_t n, std::size_t bin, CVec& y) {
  y.resize(all_bins.size());
  for (std::size_t a = 0; a < all_bins.size(); ++a) {
    y[a] = all_bins[a][t * n + bin];
  }
}

// Lane-parallel equalizer over the usable data subcarriers of one frame.
// The per-subcarrier combiner matrices share one shape (n_streams x n_rx),
// so they are packed once per frame into an SoA batch; each data symbol is
// then equalized with one batched matvec plus one batched phase-fix scale
// instead of up to 48 scalar mul_into calls. Per lane the kernels run the
// exact op sequence of the scalar path (mul_into accumulation, then the
// naive complex product with phase_fix), so the observations they produce
// are byte-identical to the scalar loop's — see linalg/simd/batch.h.
struct BatchedEqualizer {
  std::vector<std::size_t> lane_idx;  // data-subcarrier index per lane
  std::vector<std::size_t> lane_bin;  // FFT bin per lane
  linalg::simd::CBatch combiners;     // n_streams x n_rx x L
  linalg::simd::CBatch y;             // n_rx x 1 x L
  linalg::simd::CBatch s_hat;         // n_streams x 1 x L

  std::size_t lanes() const { return lane_idx.size(); }

  // Packs the ok-subcarrier combiners (one SoA transpose per frame).
  void pack(const std::vector<SubcarrierEq>& eq,
            const std::array<int, 48>& data_sc, std::size_t n_data,
            std::size_t n_streams, std::size_t n_rx, std::size_t n) {
    lane_idx.clear();
    lane_bin.clear();
    for (std::size_t i = 0; i < n_data; ++i) {
      const int k = data_sc[i];
      if (!eq[static_cast<std::size_t>(k + 26)].ok) continue;
      lane_idx.push_back(i);
      lane_bin.push_back(subcarrier_bin(k, n));
    }
    combiners.resize(n_streams, n_rx, lanes());
    y.resize(n_rx, 1, lanes());
    s_hat.resize(n_streams, 1, lanes());
    for (std::size_t l = 0; l < lanes(); ++l) {
      const int k = data_sc[lane_idx[l]];
      combiners.set_lane(l, eq[static_cast<std::size_t>(k + 26)].combiner);
    }
  }

  // Equalizes symbol t on every lane: gather y across antennas, then
  // s_hat = combiner * y, then s_hat *= phase_fix.
  void equalize_symbol(const std::vector<std::vector<cdouble>>& all_bins,
                       std::size_t t, std::size_t n, cdouble phase_fix) {
    const std::size_t nl = lanes();
    for (std::size_t a = 0; a < all_bins.size(); ++a) {
      const cdouble* row = all_bins[a].data() + t * n;
      double* yr = y.re() + a * nl;
      double* yi = y.im() + a * nl;
      for (std::size_t l = 0; l < nl; ++l) {
        const cdouble v = row[lane_bin[l]];
        yr[l] = v.real();
        yi[l] = v.imag();
      }
    }
    linalg::simd::matvec(combiners, y, s_hat);
    linalg::simd::scale(s_hat, phase_fix);
  }
};

// Pilot-based common phase of symbol t: equalizes stream 0 at each pilot
// subcarrier and returns the unit rotation undoing the common drift.
// `y`/`s_hat` are caller workspace.
cdouble pilot_phase_fix(const std::vector<SubcarrierEq>& eq,
                        const std::vector<std::vector<cdouble>>& all_bins,
                        std::size_t t, std::size_t n, CVec& y, CVec& s_hat) {
  cdouble phase_acc{0.0, 0.0};
  const double pol = pilot_polarity(t);
  const auto& pp = pilot_pattern();
  for (std::size_t pi = 0; pi < kPilotSubcarriers.size(); ++pi) {
    const int k = kPilotSubcarriers[pi];
    const std::size_t ki = static_cast<std::size_t>(k + 26);
    if (!eq[ki].ok) continue;
    gather_rx_vector(all_bins, t, n, subcarrier_bin(k, n), y);
    linalg::mul_into(eq[ki].combiner, y, s_hat);
    phase_acc += s_hat[0] * std::conj(cdouble{pol * pp[pi], 0.0});
  }
  return std::abs(phase_acc) > 0.0
             ? std::conj(phase_acc / std::abs(phase_acc))
             : cdouble{1.0, 0.0};
}

}  // namespace

DecodeResult decode_frame(const std::vector<Samples>& rx,
                          std::size_t frame_start,
                          const std::vector<std::size_t>& payload_bytes,
                          const Mcs& mcs, std::size_t n_streams,
                          const std::vector<std::size_t>& wanted_streams,
                          const InterferenceMap& interference,
                          double noise_var, const OfdmParams& params) {
  assert(payload_bytes.size() == wanted_streams.size());
  DecodeResult result;
  result.channels =
      estimate_effective_channels(rx, frame_start, n_streams, params);

  // Per-subcarrier equalizers with projected-space channel estimation
  // (robust to the frame's preamble overlapping ongoing transmissions).
  std::vector<SubcarrierEq> eq =
      make_projected_equalizers(rx, frame_start, n_streams, interference,
                                params);
  if (eq.empty()) return result;

  static const auto data_sc = data_subcarriers();
  const std::size_t n = params.scaled_fft();
  const std::size_t data_off = frame_start + 10 * (params.scaled_fft() / 4) +
                               n_streams * (2 * params.scaled_cp() +
                                            2 * params.scaled_fft());

  // Determine symbol count from the longest wanted payload.
  std::size_t n_syms = 0;
  for (std::size_t b : payload_bytes) {
    n_syms = std::max(n_syms, encoded_symbol_count(b, mcs));
  }

  // Demodulate every antenna's data symbols in one batched transform each.
  const dsp::FftPlan& plan = dsp::shared_plan(n);
  std::vector<std::vector<cdouble>> all_bins;
  const std::size_t fit =
      demod_all_antennas(rx, data_off, n_syms, plan, all_bins, params);

  // Collected per-stream symbol observations.
  std::vector<std::vector<cdouble>> obs(
      n_streams, std::vector<cdouble>(n_syms * params.n_data_subcarriers));
  std::vector<std::vector<double>> obs_nv(
      n_streams, std::vector<double>(n_syms * params.n_data_subcarriers, 1.0));

  // Steady-state pilot workspace (the pilot loop stays scalar: four
  // subcarriers don't amortize a batch) plus the lane-parallel equalizer
  // packed once for the frame's usable data subcarriers.
  CVec y;
  CVec s_hat;
  BatchedEqualizer beq;
  beq.pack(eq, data_sc, params.n_data_subcarriers, n_streams, rx.size(), n);

  // Per-lane noise variances are symbol-independent: precompute them once.
  std::vector<double> lane_nv(n_streams * beq.lanes());
  for (std::size_t l = 0; l < beq.lanes(); ++l) {
    const int k = data_sc[beq.lane_idx[l]];
    const SubcarrierEq& e = eq[static_cast<std::size_t>(k + 26)];
    for (std::size_t j = 0; j < n_streams; ++j) {
      lane_nv[j * beq.lanes() + l] =
          std::max(noise_var * e.noise_gain[j], 1e-12);
    }
  }

  // Subcarriers without a usable equalizer keep the scalar path's sentinel
  // observations for every symbol that fit.
  for (std::size_t i = 0; i < params.n_data_subcarriers; ++i) {
    const int k = data_sc[i];
    if (eq[static_cast<std::size_t>(k + 26)].ok) continue;
    for (std::size_t t = 0; t < fit; ++t) {
      const std::size_t idx = t * params.n_data_subcarriers + i;
      for (std::size_t j = 0; j < n_streams; ++j) {
        obs[j][idx] = {0.0, 0.0};
        obs_nv[j][idx] = 1e9;
      }
    }
  }

  for (std::size_t t = 0; t < fit; ++t) {
    const cdouble phase_fix = pilot_phase_fix(eq, all_bins, t, n, y, s_hat);
    beq.equalize_symbol(all_bins, t, n, phase_fix);
    for (std::size_t l = 0; l < beq.lanes(); ++l) {
      const std::size_t idx =
          t * params.n_data_subcarriers + beq.lane_idx[l];
      for (std::size_t j = 0; j < n_streams; ++j) {
        obs[j][idx] = beq.s_hat.get(j, 0, l);
        obs_nv[j][idx] = lane_nv[j * beq.lanes() + l];
      }
    }
  }

  // Decode wanted streams.
  for (std::size_t wi = 0; wi < wanted_streams.size(); ++wi) {
    const std::size_t j = wanted_streams[wi];
    const std::size_t need =
        encoded_symbol_count(payload_bytes[wi], mcs) *
        params.n_data_subcarriers;
    std::vector<cdouble> sym(obs[j].begin(),
                             obs[j].begin() + static_cast<long>(need));
    std::vector<double> nv(obs_nv[j].begin(),
                           obs_nv[j].begin() + static_cast<long>(need));
    result.payloads.push_back(
        decode_payload(sym, nv, payload_bytes[wi], mcs));
  }

  // Average post-equalization SNR per data subcarrier over wanted streams.
  result.subcarrier_snr.assign(params.n_data_subcarriers, 0.0);
  for (std::size_t i = 0; i < params.n_data_subcarriers; ++i) {
    double acc = 0.0;
    for (std::size_t j : wanted_streams) {
      acc += 1.0 / obs_nv[j][i];  // unit symbol energy / noise variance
    }
    result.subcarrier_snr[i] =
        wanted_streams.empty() ? 0.0
                               : acc / static_cast<double>(
                                           wanted_streams.size());
  }
  return result;
}

std::vector<double> measure_stream_snr(
    const std::vector<Samples>& rx, std::size_t frame_start,
    const std::vector<cdouble>& known_symbols, std::size_t n_streams,
    std::size_t stream_idx, const InterferenceMap& interference,
    const OfdmParams& params) {
  assert(known_symbols.size() % params.n_data_subcarriers == 0);
  const std::size_t n_syms = known_symbols.size() / params.n_data_subcarriers;

  std::vector<SubcarrierEq> eq =
      make_projected_equalizers(rx, frame_start, n_streams, interference,
                                params);
  if (eq.empty()) {
    return std::vector<double>(params.n_data_subcarriers, 0.0);
  }

  static const auto data_sc = data_subcarriers();
  const std::size_t n = params.scaled_fft();
  const std::size_t data_off = frame_start + 10 * (params.scaled_fft() / 4) +
                               n_streams * (2 * params.scaled_cp() +
                                            2 * params.scaled_fft());

  // Batched demodulation of the whole frame, then allocation-free
  // per-subcarrier equalization (same workspace pattern as decode_frame).
  const dsp::FftPlan& plan = dsp::shared_plan(n);
  std::vector<std::vector<cdouble>> all_bins;
  const std::size_t fit =
      demod_all_antennas(rx, data_off, n_syms, plan, all_bins, params);

  std::vector<double> err(params.n_data_subcarriers, 0.0);
  std::vector<double> sig(params.n_data_subcarriers, 0.0);
  std::vector<std::size_t> count(params.n_data_subcarriers, 0);

  CVec y;
  CVec s_hat;
  BatchedEqualizer beq;
  beq.pack(eq, data_sc, params.n_data_subcarriers, n_streams, rx.size(), n);

  for (std::size_t t = 0; t < fit; ++t) {
    const cdouble phase_fix = pilot_phase_fix(eq, all_bins, t, n, y, s_hat);
    beq.equalize_symbol(all_bins, t, n, phase_fix);
    for (std::size_t l = 0; l < beq.lanes(); ++l) {
      const std::size_t i = beq.lane_idx[l];
      const cdouble known = known_symbols[t * params.n_data_subcarriers + i];
      const cdouble e = beq.s_hat.get(stream_idx, 0, l) - known;
      err[i] += std::norm(e);
      sig[i] += std::norm(known);
      ++count[i];
    }
  }

  std::vector<double> snr(params.n_data_subcarriers, 0.0);
  for (std::size_t i = 0; i < params.n_data_subcarriers; ++i) {
    if (count[i] == 0 || err[i] <= 0.0) {
      snr[i] = 1e12;
      continue;
    }
    snr[i] = sig[i] / err[i];
  }
  return snr;
}

}  // namespace nplus::phy
