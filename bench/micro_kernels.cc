// Microbenchmarks for the compute kernels behind n+ (§4 "Complexity": the
// per-subcarrier projections and nulling/alignment solves must be cheap
// enough for hardware). google-benchmark suite.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <numbers>

#include "dsp/fft.h"
#include "phy/ofdm.h"
#include "linalg/decomp.h"
#include "linalg/simd/batch.h"
#include "linalg/simd/kernels.h"
#include "linalg/subspace.h"
#include "nulling/compression.h"
#include "nulling/precoder.h"
#include "phy/constellation.h"
#include "phy/conv_code.h"
#include "phy/frame.h"
#include "phy/link_abstraction.h"
#include "phy/mcs.h"
#include "phy/transceiver.h"
#include "sim/scenario_gen.h"
#include "util/rng.h"

namespace {

using namespace nplus;
using linalg::CMat;

CMat random_matrix(std::size_t r, std::size_t c, util::Rng& rng) {
  CMat m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.cgaussian(1.0);
  }
  return m;
}

void BM_Fft64(benchmark::State& state) {
  util::Rng rng(1);
  std::vector<std::complex<double>> x(64);
  for (auto& v : x) v = rng.cgaussian();
  for (auto _ : state) {
    auto y = x;
    dsp::fft_inplace(y);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_Fft64);

// --- By-value baseline vs. zero-allocation kernels -----------------------
// The `baseline` namespace replicates the seed implementation the kernel
// layer replaced: std::vector-backed matrices with by-value operator
// returns, and an FFT whose twiddles hide behind a per-call std::map
// lookup. Keeping it here (and only here) lets the RX-chain slice measure
// the speedup of the inline-storage + destination-passing rewrite, which
// scripts/micro_bench_gate.py holds to its 3.0x floor.

namespace baseline {

struct HeapMat {
  std::size_t rows = 0, cols = 0;
  std::vector<std::complex<double>> data;

  HeapMat() = default;
  HeapMat(std::size_t r, std::size_t c) : rows(r), cols(c), data(r * c) {}
  std::complex<double>& at(std::size_t r, std::size_t c) {
    return data[r * cols + c];
  }
  const std::complex<double>& at(std::size_t r, std::size_t c) const {
    return data[r * cols + c];
  }
};

HeapMat mul(const HeapMat& a, const HeapMat& b) {
  HeapMat out(a.rows, b.cols);
  for (std::size_t r = 0; r < a.rows; ++r) {
    for (std::size_t k = 0; k < a.cols; ++k) {
      const std::complex<double> ark = a.at(r, k);
      if (ark == std::complex<double>{0.0, 0.0}) continue;
      for (std::size_t c = 0; c < b.cols; ++c) out.at(r, c) += ark * b.at(k, c);
    }
  }
  return out;
}

std::vector<std::complex<double>> mul(const HeapMat& a,
                                      const std::vector<std::complex<double>>& x) {
  std::vector<std::complex<double>> out(a.rows);
  for (std::size_t r = 0; r < a.rows; ++r) {
    std::complex<double> s{0.0, 0.0};
    for (std::size_t c = 0; c < a.cols; ++c) s += a.at(r, c) * x[c];
    out[r] = s;
  }
  return out;
}

// Seed-style FFT: static std::map twiddle cache consulted on every call.
const std::vector<std::complex<double>>& twiddles(std::size_t n) {
  static std::map<std::size_t, std::vector<std::complex<double>>> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    std::vector<std::complex<double>> w(n / 2);
    for (std::size_t k = 0; k < n / 2; ++k) {
      const double ang = -2.0 * std::numbers::pi * static_cast<double>(k) /
                         static_cast<double>(n);
      w[k] = {std::cos(ang), std::sin(ang)};
    }
    it = cache.emplace(n, std::move(w)).first;
  }
  return it->second;
}

void fft_inplace(std::vector<std::complex<double>>& x) {
  const std::size_t n = x.size();
  std::size_t j = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (i < j) std::swap(x[i], x[j]);
    std::size_t mask = n >> 1;
    while (j & mask) {
      j &= ~mask;
      mask >>= 1;
    }
    j |= mask;
  }
  const auto& w = twiddles(n);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t stride = n / len;
    for (std::size_t start = 0; start < n; start += len) {
      for (std::size_t k = 0; k < len / 2; ++k) {
        const auto t = w[k * stride] * x[start + k + len / 2];
        const auto u = x[start + k];
        x[start + k] = u + t;
        x[start + k + len / 2] = u - t;
      }
    }
  }
}

HeapMat random_heap_matrix(std::size_t r, std::size_t c, util::Rng& rng) {
  HeapMat m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m.at(i, j) = rng.cgaussian(1.0);
  }
  return m;
}

}  // namespace baseline

void BM_MatMul4x4_Baseline(benchmark::State& state) {
  util::Rng rng(10);
  const auto a = baseline::random_heap_matrix(4, 4, rng);
  const auto b = baseline::random_heap_matrix(4, 4, rng);
  for (auto _ : state) {
    auto c = baseline::mul(a, b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_MatMul4x4_Baseline);

void BM_MatMul4x4_MulInto(benchmark::State& state) {
  util::Rng rng(10);
  const CMat a = random_matrix(4, 4, rng);
  const CMat b = random_matrix(4, 4, rng);
  CMat c;
  for (auto _ : state) {
    linalg::mul_into(a, b, c);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_MatMul4x4_MulInto);

void BM_Fft64_Baseline(benchmark::State& state) {
  // Seed behavior: a fresh 64-sample window vector per symbol plus the
  // map-cached twiddle lookup.
  util::Rng rng(11);
  std::vector<std::complex<double>> x(64);
  for (auto& v : x) v = rng.cgaussian();
  for (auto _ : state) {
    std::vector<std::complex<double>> y(x.begin(), x.end());
    baseline::fft_inplace(y);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_Fft64_Baseline);

void BM_Fft64_Planned(benchmark::State& state) {
  util::Rng rng(11);
  std::vector<std::complex<double>> x(64);
  for (auto& v : x) v = rng.cgaussian();
  const dsp::FftPlan plan(64);
  std::vector<std::complex<double>> y(64);
  for (auto _ : state) {
    std::copy(x.begin(), x.end(), y.begin());
    plan.forward(y.data());
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_Fft64_Planned);

void BM_FrameSymbolFft_Baseline(benchmark::State& state) {
  // 50 OFDM symbols demodulated one window allocation at a time.
  util::Rng rng(12);
  const std::size_t n_syms = 50;
  std::vector<std::complex<double>> samples(n_syms * 80);
  for (auto& v : samples) v = rng.cgaussian();
  for (auto _ : state) {
    for (std::size_t s = 0; s < n_syms; ++s) {
      std::vector<std::complex<double>> window(
          samples.begin() + static_cast<long>(s * 80 + 16),
          samples.begin() + static_cast<long>(s * 80 + 80));
      baseline::fft_inplace(window);
      benchmark::DoNotOptimize(window);
    }
  }
}
BENCHMARK(BM_FrameSymbolFft_Baseline)->Unit(benchmark::kMicrosecond);

void BM_FrameSymbolFft_Batched(benchmark::State& state) {
  // The same 50 symbols through ofdm_demod_symbols_into: one reused
  // contiguous buffer, one batched planned transform.
  util::Rng rng(12);
  const std::size_t n_syms = 50;
  phy::Samples samples(n_syms * 80);
  for (auto& v : samples) v = rng.cgaussian();
  const dsp::FftPlan plan(64);
  std::vector<std::complex<double>> bins;
  for (auto _ : state) {
    phy::ofdm_demod_symbols_into(samples, 0, n_syms, plan, bins, {});
    benchmark::DoNotOptimize(bins);
  }
}
BENCHMARK(BM_FrameSymbolFft_Batched)->Unit(benchmark::kMicrosecond);

void BM_RxChainSubcarrier_Baseline(benchmark::State& state) {
  // Seed-style steady-state RX symbol: allocate the FFT window, transform
  // through the map-cached FFT, then per data subcarrier allocate the
  // receive vector and equalize with a by-value heap matvec.
  util::Rng rng(13);
  const std::size_t n_rx = 3;
  const std::size_t n = 64;
  std::vector<std::vector<std::complex<double>>> rx(n_rx);
  for (auto& s : rx) {
    s.resize(80);
    for (auto& v : s) v = rng.cgaussian();
  }
  std::vector<baseline::HeapMat> combiner(53);
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    combiner[static_cast<std::size_t>(k + 26)] =
        baseline::random_heap_matrix(2, n_rx, rng);
  }
  static const auto data_sc = phy::data_subcarriers();
  for (auto _ : state) {
    std::vector<std::vector<std::complex<double>>> bins(n_rx);
    for (std::size_t a = 0; a < n_rx; ++a) {
      std::vector<std::complex<double>> window(rx[a].begin() + 16,
                                               rx[a].begin() + 80);
      baseline::fft_inplace(window);
      bins[a] = std::move(window);
    }
    double acc = 0.0;
    for (std::size_t i = 0; i < data_sc.size(); ++i) {
      const int k = data_sc[i];
      const std::size_t ki = static_cast<std::size_t>(k + 26);
      std::vector<std::complex<double>> y(n_rx);
      for (std::size_t a = 0; a < n_rx; ++a) {
        y[a] = bins[a][phy::subcarrier_bin(k, n)];
      }
      const auto s_hat = baseline::mul(combiner[ki], y);
      acc += std::norm(s_hat[0]);
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_RxChainSubcarrier_Baseline)->Unit(benchmark::kMicrosecond);

void BM_RxChainSubcarrier_Workspace(benchmark::State& state) {
  // The same math through the kernel layer: planned batched FFT into a
  // reused buffer, hoisted receive/equalized vectors, mul_into — zero heap
  // allocations per iteration (proven by tests/test_zero_alloc.cc).
  util::Rng rng(13);
  const std::size_t n_rx = 3;
  const std::size_t n = 64;
  std::vector<phy::Samples> rx(n_rx);
  for (auto& s : rx) {
    s.resize(80);
    for (auto& v : s) v = rng.cgaussian();
  }
  std::vector<CMat> combiner(53);
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    combiner[static_cast<std::size_t>(k + 26)] = random_matrix(2, n_rx, rng);
  }
  static const auto data_sc = phy::data_subcarriers();
  const dsp::FftPlan plan(n);
  std::vector<std::complex<double>> bins(n_rx * n);
  linalg::CVec y, s_hat;
  for (auto _ : state) {
    for (std::size_t a = 0; a < n_rx; ++a) {
      std::copy(rx[a].begin() + 16, rx[a].begin() + 80,
                bins.begin() + static_cast<long>(a * n));
    }
    plan.forward_batch(bins.data(), n_rx);
    double acc = 0.0;
    for (std::size_t i = 0; i < data_sc.size(); ++i) {
      const int k = data_sc[i];
      const std::size_t ki = static_cast<std::size_t>(k + 26);
      y.resize(n_rx);
      for (std::size_t a = 0; a < n_rx; ++a) {
        y[a] = bins[a * n + phy::subcarrier_bin(k, n)];
      }
      linalg::mul_into(combiner[ki], y, s_hat);
      acc += std::norm(s_hat[0]);
    }
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_RxChainSubcarrier_Workspace)->Unit(benchmark::kMicrosecond);

// --- SIMD batch engine ---------------------------------------------------
// The lane-parallel counterparts of the scalar RX chain above. Lanes are
// data subcarriers; the per-iteration cost includes the SoA gather and the
// per-lane read-back, so _SimdBatch vs _Workspace is the honest end-to-end
// speedup of the batched equalizer, not a kernel-only number.

void BM_RxChainSubcarrier_SimdBatch(benchmark::State& state) {
  util::Rng rng(13);
  const std::size_t n_rx = 3;
  const std::size_t n = 64;
  std::vector<phy::Samples> rx(n_rx);
  for (auto& s : rx) {
    s.resize(80);
    for (auto& v : s) v = rng.cgaussian();
  }
  std::vector<CMat> combiner(53);
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    combiner[static_cast<std::size_t>(k + 26)] = random_matrix(2, n_rx, rng);
  }
  static const auto data_sc = phy::data_subcarriers();
  const std::size_t lanes = data_sc.size();
  const dsp::FftPlan plan(n);
  std::vector<std::complex<double>> bins(n_rx * n);
  linalg::simd::CBatch cb(2, n_rx, lanes);
  linalg::simd::CBatch yb(n_rx, 1, lanes);
  linalg::simd::CBatch sb;
  std::vector<std::size_t> lane_bin(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    cb.set_lane(l, combiner[static_cast<std::size_t>(data_sc[l] + 26)]);
    lane_bin[l] = phy::subcarrier_bin(data_sc[l], n);
  }
  for (auto _ : state) {
    for (std::size_t a = 0; a < n_rx; ++a) {
      std::copy(rx[a].begin() + 16, rx[a].begin() + 80,
                bins.begin() + static_cast<long>(a * n));
    }
    plan.forward_batch(bins.data(), n_rx);
    double* yr = yb.re();
    double* yi = yb.im();
    for (std::size_t a = 0; a < n_rx; ++a) {
      const std::complex<double>* row = bins.data() + a * n;
      for (std::size_t l = 0; l < lanes; ++l) {
        yr[a * lanes + l] = row[lane_bin[l]].real();
        yi[a * lanes + l] = row[lane_bin[l]].imag();
      }
    }
    linalg::simd::matvec(cb, yb, sb);
    double acc = 0.0;
    const double* sr = sb.re();
    const double* si = sb.im();
    for (std::size_t l = 0; l < lanes; ++l) {
      acc += sr[l] * sr[l] + si[l] * si[l];
    }
    benchmark::DoNotOptimize(acc);
  }
}

BENCHMARK(BM_RxChainSubcarrier_SimdBatch)->Unit(benchmark::kMicrosecond);

void BM_JoinPrecoder(benchmark::State& state) {
  // One subcarrier's nulling+alignment solve for a 3-antenna joiner
  // (the paper's tx3 case): this runs 52x per handshake.
  util::Rng rng(2);
  const CMat h_r1 = random_matrix(1, 3, rng);
  const CMat h_r2 = random_matrix(2, 3, rng);
  const CMat wanted = linalg::orthogonal_complement(
                          linalg::orthonormal_basis(random_matrix(2, 1, rng)))
                          .hermitian();
  for (auto _ : state) {
    auto pre = nulling::compute_join_precoder(
        3,
        {nulling::make_null_constraint(h_r1),
         nulling::make_align_constraint(h_r2, wanted)},
        1);
    benchmark::DoNotOptimize(pre);
  }
}
BENCHMARK(BM_JoinPrecoder);

void BM_MultiRxPrecoder(benchmark::State& state) {
  // The Fig. 4 Eq. 7 solve (3x3 system), per subcarrier.
  util::Rng rng(3);
  const CMat h_ap1 = random_matrix(2, 3, rng);
  const CMat ap1_rows =
      linalg::orthonormal_basis(random_matrix(2, 1, rng)).hermitian();
  const CMat h_c2 = random_matrix(2, 3, rng);
  const CMat h_c3 = random_matrix(2, 3, rng);
  const CMat rows_c2 =
      linalg::orthogonal_complement(
          linalg::orthonormal_basis(random_matrix(2, 1, rng)))
          .hermitian();
  const CMat rows_c3 =
      linalg::orthogonal_complement(
          linalg::orthonormal_basis(random_matrix(2, 1, rng)))
          .hermitian();
  for (auto _ : state) {
    auto pre = nulling::compute_multi_rx_precoder(
        3, {nulling::make_align_constraint(h_ap1, ap1_rows)},
        {nulling::OwnReceiver{h_c2, rows_c2, {0}},
         nulling::OwnReceiver{h_c3, rows_c3, {1}}});
    benchmark::DoNotOptimize(pre);
  }
}
BENCHMARK(BM_MultiRxPrecoder);

void BM_OrthogonalComplement3x2(benchmark::State& state) {
  util::Rng rng(4);
  const CMat a = random_matrix(3, 2, rng);
  for (auto _ : state) {
    auto w = linalg::orthogonal_complement(a);
    benchmark::DoNotOptimize(w);
  }
}
BENCHMARK(BM_OrthogonalComplement3x2);

void BM_Svd3x3(benchmark::State& state) {
  util::Rng rng(5);
  const CMat a = random_matrix(3, 3, rng);
  for (auto _ : state) {
    auto d = linalg::svd(a);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_Svd3x3);

void BM_ViterbiDecode1500B(benchmark::State& state) {
  util::Rng rng(6);
  phy::Bits data(12000);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(2u));
  for (int i = 0; i < 6; ++i) data.push_back(0);
  const phy::Bits coded = phy::conv_encode(data, phy::CodeRate::kRate1_2);
  for (auto _ : state) {
    auto out = phy::viterbi_decode(coded, data.size(), phy::CodeRate::kRate1_2);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ViterbiDecode1500B)->Unit(benchmark::kMillisecond);

// One 1500-byte frame (12000 data + 6 tail bits) coded at 64-QAM 3/4 and
// received at about 20 dB: the symbols and max-log LLRs the full-PHY
// delivery path demaps and decodes.
struct Qam64Frame {
  std::size_t n_data = 0;
  std::vector<std::complex<double>> symbols;
  std::vector<double> noise_var;
  std::vector<double> llr;
};

const Qam64Frame& qam64_frame() {
  static const Qam64Frame f = [] {
    Qam64Frame fr;
    util::Rng rng(8);
    phy::Bits data(12000);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(2u));
    for (int i = 0; i < 6; ++i) data.push_back(0);
    fr.n_data = data.size();
    phy::Bits coded = phy::conv_encode(data, phy::CodeRate::kRate3_4);
    const std::size_t n_coded = coded.size();
    while (coded.size() % 6 != 0) coded.push_back(0);
    fr.symbols = phy::map_bits(coded, phy::Modulation::kQam64);
    fr.noise_var.assign(fr.symbols.size(), 0.01);
    for (auto& y : fr.symbols) y += rng.cgaussian(0.01);
    fr.llr = phy::demap_soft(fr.symbols, fr.noise_var, phy::Modulation::kQam64);
    fr.llr.resize(n_coded);
    return fr;
  }();
  return f;
}

void BM_ViterbiDecodeSoft1500B(benchmark::State& state) {
  const Qam64Frame& f = qam64_frame();
  for (auto _ : state) {
    auto out = phy::viterbi_decode_soft(f.llr, f.n_data,
                                        phy::CodeRate::kRate3_4);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ViterbiDecodeSoft1500B)->Unit(benchmark::kMicrosecond);

// One 1500-byte stream through the whole full-PHY scorer: payload draw,
// encode, per-symbol observation model (one sibling stream, one residual
// interferer, noise at about 25 dB), soft demap, Viterbi and CRC. Fixed
// models on 48 subcarriers, so every iteration does the same work. The
// argument is the MCS: BPSK 1/2, 16-QAM 1/2 and 64-QAM 3/4 span the mix of
// the fullphy_cell workload, where about a quarter of the symbols are
// 64-QAM, two fifths 16-QAM and the rest BPSK or QPSK.
void BM_StreamDeliveryFullPhy(benchmark::State& state) {
  const phy::Mcs& mcs = phy::mcs_by_index(static_cast<int>(state.range(0)));
  std::vector<phy::StreamRxModel> models(48);
  for (std::size_t k = 0; k < models.size(); ++k) {
    const double phase = 0.13 * static_cast<double>(k);
    phy::StreamRxModel& m = models[k];
    m.gain = std::polar(0.8 + 0.004 * static_cast<double>(k), phase);
    m.self = {std::polar(0.01, 1.0 - phase)};
    m.leak = {std::polar(0.01, 2.0 + phase)};
    m.noise_var = 2e-3;
    m.sinr = std::norm(m.gain) / (m.noise_var + 2e-4);
  }
  util::Rng rng(10);
  std::size_t delivered = 0;
  for (auto _ : state) {
    const bool ok =
        phy::simulate_stream_delivery_mimo(1500, mcs, models, rng);
    delivered += ok ? 1 : 0;
    benchmark::DoNotOptimize(delivered);
  }
  state.counters["ok_frac"] = benchmark::Counter(
      static_cast<double>(delivered), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_StreamDeliveryFullPhy)
    ->Arg(0)
    ->Arg(4)
    ->Arg(7)
    ->Unit(benchmark::kMicrosecond);

void BM_DemapSoftQam64_1500B(benchmark::State& state) {
  const Qam64Frame& f = qam64_frame();
  for (auto _ : state) {
    auto llr = phy::demap_soft(f.symbols, f.noise_var, phy::Modulation::kQam64);
    benchmark::DoNotOptimize(llr);
  }
}
BENCHMARK(BM_DemapSoftQam64_1500B)->Unit(benchmark::kMicrosecond);

// The transmit and receive halves of the codec on one 1500-byte 16-QAM 3/4
// frame: encode_payload, and decode_payload of its symbols received at
// about 25 dB (demap, deinterleave, Viterbi, descramble, CRC).
const phy::Mcs& payload_bench_mcs() { return phy::mcs_by_index(5); }

std::vector<std::uint8_t> payload_bench_bytes() {
  util::Rng rng(7);
  std::vector<std::uint8_t> payload(1500);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_int(256u));
  return payload;
}

void BM_EncodePayload1500B(benchmark::State& state) {
  const std::vector<std::uint8_t> payload = payload_bench_bytes();
  for (auto _ : state) {
    auto syms = phy::encode_payload(payload, payload_bench_mcs());
    benchmark::DoNotOptimize(syms);
  }
}
BENCHMARK(BM_EncodePayload1500B)->Unit(benchmark::kMicrosecond);

void BM_DecodePayload1500B(benchmark::State& state) {
  const std::vector<std::uint8_t> payload = payload_bench_bytes();
  auto syms = phy::encode_payload(payload, payload_bench_mcs());
  util::Rng rng(11);
  for (auto& y : syms) y += rng.cgaussian(3e-3);
  const std::vector<double> noise_var(syms.size(), 3e-3);
  for (auto _ : state) {
    auto out = phy::decode_payload(syms, noise_var, payload.size(),
                                   payload_bench_mcs());
    if (!out.has_value()) state.SkipWithError("frame did not decode");
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_DecodePayload1500B)->Unit(benchmark::kMicrosecond);

void BM_CompressAlignment(benchmark::State& state) {
  // Full 52-subcarrier differential compression of a 2x1 alignment space.
  util::Rng rng(8);
  std::vector<CMat> bases(53);
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    bases[static_cast<std::size_t>(k + 26)] =
        linalg::orthonormal_basis(random_matrix(2, 1, rng));
  }
  for (auto _ : state) {
    auto out = nulling::compress_alignment(bases);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_CompressAlignment)->Unit(benchmark::kMicrosecond);

void BM_BuildTxFrame3Stream(benchmark::State& state) {
  util::Rng rng(9);
  phy::Bits bits(96 * 10 * 2);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng.uniform_int(2u));
  const auto syms = phy::map_bits(bits, phy::Modulation::kQpsk);
  std::vector<std::vector<std::complex<double>>> streams(3);
  for (auto& s : streams) {
    s.assign(syms.begin(), syms.begin() + 480);
  }
  const auto plan = phy::PrecodingPlan::direct(3, 3);
  for (auto _ : state) {
    auto frame = phy::build_tx_frame(streams, plan);
    benchmark::DoNotOptimize(frame);
  }
}
BENCHMARK(BM_BuildTxFrame3Stream)->Unit(benchmark::kMicrosecond);

// Set-up cost of one fullphy_cell-sized eager world: 10 peer links (10
// transmitters, 10 receivers) under the heterogeneous antenna mix
// nplus-bench pins, built sparse (tx-rx pairs and beliefs only) from a fixed
// stream, as sim::make_world builds each item of a sweep.
void BM_EagerWorldBuild(benchmark::State& state) {
  sim::GenConfig gen;
  gen.n_links = 10;
  gen.tx_mix.weights = {0.35, 0.30, 0.20, 0.15};
  gen.rx_mix.weights = {0.35, 0.30, 0.20, 0.15};
  util::Rng topo_rng(23);
  const sim::GeneratedTopology topo = sim::generate_topology(gen, topo_rng);
  for (auto _ : state) {
    util::Rng rng(29);
    sim::World world = sim::make_world(topo, rng);
    benchmark::DoNotOptimize(world);
  }
}
BENCHMARK(BM_EagerWorldBuild)->Unit(benchmark::kMicrosecond);

}  // namespace
