#include "phy/conv_code.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "phy/conv_code_internal.h"

namespace nplus::phy {

namespace {

constexpr unsigned kG0 = 0133;  // octal, 7 taps
constexpr unsigned kG1 = 0171;
constexpr int kK = 7;
constexpr int kStates = 1 << (kK - 1);  // 64
constexpr int kButterflies = kStates / 2;

// Parity of the lowest 7 bits.
constexpr std::uint8_t parity7(unsigned x) {
  x &= 0x7F;
  x ^= x >> 4;
  x ^= x >> 2;
  x ^= x >> 1;
  return static_cast<std::uint8_t>(x & 1u);
}

// Mother-code output pair (a << 1) | b of each 7-bit register: the input
// bit in bit 6, the predecessor state in bits 0..5.
constexpr std::array<std::uint8_t, 2 * kStates> output_pairs() {
  std::array<std::uint8_t, 2 * kStates> pairs{};
  for (unsigned reg = 0; reg < 2 * kStates; ++reg) {
    pairs[reg] = static_cast<std::uint8_t>((parity7(reg & kG0) << 1) |
                                           parity7(reg & kG1));
  }
  return pairs;
}
constexpr std::array<std::uint8_t, 2 * kStates> kPairs = output_pairs();

// Puncturing patterns over the serialized rate-1/2 stream A1 B1 A2 B2 ...
// (A = g0 bit, B = g1 bit), walked with a phase index: keep[phase] is 1
// where the bit is transmitted. Every period is a whole number of A,B
// pairs, so an encoder step always starts on an even phase.
// Rate 2/3: A1 B1 A2 (B2 punctured).
// Rate 3/4: A1 B1 A2 B3 (B2, A3 punctured).
struct Puncture {
  std::array<std::uint8_t, 6> keep;
  std::size_t period;
};

constexpr Puncture puncture_for(CodeRate r) {
  switch (r) {
    case CodeRate::kRate1_2:
      return {{1, 1}, 2};
    case CodeRate::kRate2_3:
      return {{1, 1, 1, 0}, 4};
    case CodeRate::kRate3_4:
      return {{1, 1, 1, 0, 0, 1}, 6};
  }
  return {{1, 1}, 2};
}

constexpr std::size_t kept_per_period(const Puncture& p) {
  std::size_t kept = 0;
  for (std::size_t i = 0; i < p.period; ++i) kept += p.keep[i];
  return kept;
}

}  // namespace

int code_rate_num(CodeRate r) {
  switch (r) {
    case CodeRate::kRate1_2:
      return 1;
    case CodeRate::kRate2_3:
      return 2;
    case CodeRate::kRate3_4:
      return 3;
  }
  return 1;
}

int code_rate_den(CodeRate r) {
  switch (r) {
    case CodeRate::kRate1_2:
      return 2;
    case CodeRate::kRate2_3:
      return 3;
    case CodeRate::kRate3_4:
      return 4;
  }
  return 2;
}

double code_rate_value(CodeRate r) {
  return static_cast<double>(code_rate_num(r)) / code_rate_den(r);
}

std::size_t coded_length(std::size_t n_in, CodeRate rate) {
  // Mother-code output length 2*n_in, walked against the puncture pattern.
  const Puncture p = puncture_for(rate);
  const std::size_t total = 2 * n_in;
  std::size_t kept = total / p.period * kept_per_period(p);
  for (std::size_t i = 0; i < total % p.period; ++i) kept += p.keep[i];
  return kept;
}

namespace {

// ConvEncoder::encode for one rate. Whole puncture periods run with the
// pattern unrolled; only a block that starts or stops mid-period walks the
// phase one input bit at a time.
template <CodeRate R>
std::size_t encode_rate(const std::uint8_t* data, std::size_t n,
                        std::uint8_t* out, unsigned& state_io,
                        std::size_t& phase_io) {
  constexpr Puncture p = puncture_for(R);
  // Locals, not the caller's: stores through `out` may alias them. The
  // most recent bit sits in the LSB of the shifted-in side of `state`.
  unsigned state = state_io;
  std::size_t phase = phase_io;
  std::size_t i = 0;
  std::size_t k = 0;
  const auto walk_one = [&] {
    const unsigned reg = (static_cast<unsigned>(data[i++] & 1u) << 6) | state;
    if (p.keep[phase] != 0) out[k++] = kPairs[reg] >> 1;
    if (p.keep[phase + 1] != 0) out[k++] = kPairs[reg] & 1u;
    phase = phase + 2 == p.period ? 0 : phase + 2;
    state = reg >> 1;
  };
  while (i < n && phase != 0) walk_one();
  while (n - i >= p.period / 2) {
    for (std::size_t j = 0; j < p.period; j += 2) {
      const unsigned reg = (static_cast<unsigned>(data[i++] & 1u) << 6) | state;
      if (p.keep[j] != 0) out[k++] = kPairs[reg] >> 1;
      if (p.keep[j + 1] != 0) out[k++] = kPairs[reg] & 1u;
      state = reg >> 1;
    }
  }
  while (i < n) walk_one();
  state_io = state;
  phase_io = phase;
  return k;
}

}  // namespace

std::size_t ConvEncoder::encode(const std::uint8_t* data, std::size_t n,
                                std::uint8_t* out) {
  switch (rate_) {
    case CodeRate::kRate1_2:
      return encode_rate<CodeRate::kRate1_2>(data, n, out, state_, phase_);
    case CodeRate::kRate2_3:
      return encode_rate<CodeRate::kRate2_3>(data, n, out, state_, phase_);
    case CodeRate::kRate3_4:
      return encode_rate<CodeRate::kRate3_4>(data, n, out, state_, phase_);
  }
  return 0;
}

Bits conv_encode(const Bits& data, CodeRate rate) {
  Bits out(coded_length(data.size(), rate));
  ConvEncoder encoder(rate);
  const std::size_t n = encoder.encode(data.data(), data.size(), out.data());
  assert(n == out.size());
  (void)n;
  return out;
}

namespace {

// A vector of W doubles, and the mask type a lane-wise compare of two of
// them yields (all bits set where true).
template <int W>
struct Lanes;
template <>
struct Lanes<2> {
  typedef double Vec __attribute__((vector_size(16)));
  typedef std::int64_t Mask __attribute__((vector_size(16)));
};
template <>
struct Lanes<4> {
  typedef double Vec __attribute__((vector_size(32)));
  typedef std::int64_t Mask __attribute__((vector_size(32)));
};
template <>
struct Lanes<8> {
  typedef double Vec __attribute__((vector_size(64)));
  typedef std::int64_t Mask __attribute__((vector_size(64)));
};

// The forward pass of the trellis over n_steps steps of `llr` (2 entries
// per step), W butterflies per vector: lane l of block j is butterfly
// k = j*W + l. Advances the 64 path metrics in `metric` and writes one
// survivor word per step.
//
// Butterfly k joins the predecessor pair 2k, 2k+1 to the successor pair k
// (input 0) and k+32 (input 1). Both generators tap the input bit and the
// oldest bit, so the four edges carry one branch metric b and its exact
// negation: e+b and o-b into k, e-b and o+b into k+32. b is la+lb or la-lb,
// negated when the edge 2k -> k emits a = 1: selection and negation only,
// no multiply, so no contraction can round differently in any build.
// Round-to-nearest is sign-symmetric, so -(la-lb) equals -la+lb up to the
// sign of a zero, which no compare can tell apart.
//
// Every lane keeps the scalar rules: the even candidate stands unless it is
// -inf or NaN, and the odd one wins only if strictly greater. So ties go to
// the even predecessor, an unreached predecessor (-inf) never wins, and a
// NaN is never stored. The clamp x > floor ? x : floor and the select
// o > a ? o : a are each exactly one IEEE max (maxpd(x, y) = x > y ? x : y,
// NaN included). GCC emits that max only when neither operand is a
// compile-time constant, so the floor (-inf) arrives as the `unreached`
// argument of the out-of-line builds: with a constant it compiles to a
// compare and a blend. The one cross-lane operation is the integer OR that
// folds the decision masks into the step's survivor word: each lane ANDs
// its two decisions with its state bit, the blocks OR into one vector for
// states 0..31 and one for 32..63, and fold_or halves their merge to one
// word.
//
// Always inlined, so each caller compiles the body for its own target.
template <int W>
[[gnu::always_inline]] inline std::int64_t fold_or(
    const typename Lanes<W>::Mask& v) {
  if constexpr (W == 2) {
    return v[0] | v[1];
  } else if constexpr (W == 4) {
    return fold_or<2>(__builtin_shufflevector(v, v, 0, 1) |
                      __builtin_shufflevector(v, v, 2, 3));
  } else {
    return fold_or<4>(__builtin_shufflevector(v, v, 0, 1, 2, 3) |
                      __builtin_shufflevector(v, v, 4, 5, 6, 7));
  }
}

template <int W>
[[gnu::always_inline]] inline void trellis_pass(const double* llr,
                                                std::size_t n_steps,
                                                std::uint64_t* survivors,
                                                double* metric,
                                                double unreached) {
  using Vec = typename Lanes<W>::Vec;
  using Mask = typename Lanes<W>::Mask;
  constexpr int kBlocks = kButterflies / W;

  // Per-lane constants: whether b is la-lb (the pair's bits differ),
  // whether it is negated (a = 1), and the lane's survivor bit.
  Mask use_diff[kBlocks];
  Mask negate[kBlocks];
  Mask bit[kBlocks];
  Vec floor;
  for (int l = 0; l < W; ++l) floor[l] = unreached;
  for (int j = 0; j < kBlocks; ++j) {
    for (int l = 0; l < W; ++l) {
      // The output pair of the edge 2k -> k. The trellis depends only on
      // the mother code: detail::depuncture() handles every CodeRate.
      const unsigned s = kPairs[static_cast<std::size_t>(2 * (j * W + l))];
      use_diff[j][l] = ((s >> 1) ^ s) & 1u ? -1 : 0;
      negate[j][l] = (s >> 1) != 0 ? -1 : 0;
      bit[j][l] = std::int64_t{1} << (j * W + l);
    }
  }

  // Metrics of states 0..63 in order, W per vector.
  Vec buf_a[2 * kBlocks];
  Vec buf_b[2 * kBlocks];
  std::memcpy(buf_a, metric, kStates * sizeof(double));
  Vec* cur = buf_a;
  Vec* next = buf_b;

  for (std::size_t t = 0; t < n_steps; ++t) {
    const double la = llr[2 * t];
    const double lb = llr[2 * t + 1];
    Vec sum;
    Vec diff;
    for (int l = 0; l < W; ++l) {
      sum[l] = la + lb;
      diff[l] = la - lb;
    }
    Mask dec_lo = {};
    Mask dec_hi = {};
    for (int j = 0; j < kBlocks; ++j) {
      // Stride-2 loads: the even and the odd predecessors of the block.
      const Vec v0 = cur[2 * j];
      const Vec v1 = cur[2 * j + 1];
      Vec e;
      Vec o;
      if constexpr (W == 2) {
        e = __builtin_shufflevector(v0, v1, 0, 2);
        o = __builtin_shufflevector(v0, v1, 1, 3);
      } else if constexpr (W == 4) {
        e = __builtin_shufflevector(v0, v1, 0, 2, 4, 6);
        o = __builtin_shufflevector(v0, v1, 1, 3, 5, 7);
      } else {
        e = __builtin_shufflevector(v0, v1, 0, 2, 4, 6, 8, 10, 12, 14);
        o = __builtin_shufflevector(v0, v1, 1, 3, 5, 7, 9, 11, 13, 15);
      }
      Vec b = use_diff[j] ? diff : sum;
      b = negate[j] ? -b : b;
      const Vec e_plus = e + b;
      const Vec a0 = e_plus > floor ? e_plus : floor;
      const Vec o_minus = o - b;
      const Mask d0 = o_minus > a0;
      next[j] = d0 ? o_minus : a0;
      const Vec e_minus = e - b;
      const Vec a1 = e_minus > floor ? e_minus : floor;
      const Vec o_plus = o + b;
      const Mask d1 = o_plus > a1;
      next[kBlocks + j] = d1 ? o_plus : a1;
      dec_lo |= d0 & bit[j];
      dec_hi |= d1 & bit[j];
    }
    // Bit n of the word is set iff state n was reached from its odd
    // predecessor.
    survivors[t] = static_cast<std::uint64_t>(
        fold_or<W>(dec_lo | (dec_hi << kButterflies)));
    std::swap(cur, next);
  }
  std::memcpy(metric, cur, kStates * sizeof(double));
}

// detail::depuncture for one rate. Whole puncture periods are copied with
// the pattern unrolled while the source covers them; only the ragged ends
// (a chunk that starts or stops mid-period, or runs past the end of `llr`)
// walk the pattern one entry at a time with the phase and bound tests.
template <CodeRate R>
void depuncture_rate(const std::vector<double>& llr, std::size_t first,
                     std::size_t n_steps, double* out) {
  constexpr Puncture p = puncture_for(R);
  constexpr std::size_t kKept = kept_per_period(p);
  // Transmitted bits before step `first`, and its phase in the pattern.
  std::size_t src = coded_length(first, R);
  std::size_t phase = 2 * first % p.period;
  const std::size_t n = 2 * n_steps;
  std::size_t i = 0;
  const auto walk_one = [&] {
    out[i] = 0.0;
    if (p.keep[phase] != 0 && src < llr.size()) out[i] = llr[src++];
    phase = phase + 1 == p.period ? 0 : phase + 1;
    ++i;
  };
  while (i < n && phase != 0) walk_one();
  while (n - i >= p.period && src + kKept <= llr.size()) {
    std::size_t s = src;
    for (std::size_t j = 0; j < p.period; ++j) {
      out[i + j] = p.keep[j] != 0 ? llr[s++] : 0.0;
    }
    i += p.period;
    src += kKept;
  }
  while (i < n) walk_one();
}

// The last argument is the metric of an unreached state, -inf (see
// trellis_pass).
using TrellisPass = void (*)(const double*, std::size_t, std::uint64_t*,
                             double*, double);

// Trellis steps per depunctured chunk.
constexpr std::size_t kChunkSteps = 512;

void trellis_pass_baseline(const double* llr, std::size_t n_steps,
                           std::uint64_t* survivors, double* metric,
                           double unreached) {
  trellis_pass<2>(llr, n_steps, survivors, metric, unreached);
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void trellis_pass_avx2(
    const double* llr, std::size_t n_steps, std::uint64_t* survivors,
    double* metric, double unreached) {
  trellis_pass<4>(llr, n_steps, survivors, metric, unreached);
}

__attribute__((target("avx512f"))) void trellis_pass_avx512(
    const double* llr, std::size_t n_steps, std::uint64_t* survivors,
    double* metric, double unreached) {
  trellis_pass<8>(llr, n_steps, survivors, metric, unreached);
}
#endif

TrellisPass pass_for(detail::TrellisBuild build) {
  if (!detail::trellis_build_runs_here(build)) {
    throw std::invalid_argument(
        std::string("viterbi: trellis build ") +
        detail::trellis_build_name(build) + " cannot run on this CPU");
  }
#if defined(__x86_64__)
  if (build == detail::TrellisBuild::kAvx512) return trellis_pass_avx512;
  if (build == detail::TrellisBuild::kAvx2) return trellis_pass_avx2;
#endif
  return trellis_pass_baseline;
}

Bits decode_soft(TrellisPass pass, const std::vector<double>& llr,
                 std::size_t n_out, CodeRate rate) {
  // Survivors, one 64-bit word per step, reused across calls. Every word
  // is written before it is read, so the buffer needs no clearing.
  static thread_local std::vector<std::uint64_t> survivors;
  if (survivors.size() < n_out) survivors.resize(n_out);
  constexpr double kUnreached = -std::numeric_limits<double>::infinity();
  std::array<double, kStates> metric{};
  metric.fill(kUnreached);
  metric[0] = 0.0;  // encoder starts in state 0
  // The trellis reads the depunctured stream a chunk at a time, so its
  // buffer is a fixed 8 KiB whatever the frame length.
  std::array<double, 2 * kChunkSteps> full{};
  for (std::size_t t0 = 0; t0 < n_out; t0 += kChunkSteps) {
    const std::size_t n = std::min(kChunkSteps, n_out - t0);
    detail::depuncture(llr, t0, n, rate, full.data());
    pass(full.data(), n, survivors.data() + t0, metric.data(), kUnreached);
  }

  // Trace back from the best end state (frames are tail-terminated to state
  // 0 by frame.cc, but be robust to untailed use).
  unsigned state = 0;
  double best = metric[0];
  for (unsigned s = 1; s < kStates; ++s) {
    if (metric[s] > best) {
      best = metric[s];
      state = s;
    }
  }

  // The input bit that entered `state` is its top bit; its predecessor
  // shifts that out and the survivor bit in as the oldest bit.
  Bits out(n_out);
  for (std::size_t t = n_out; t-- > 0;) {
    out[t] = static_cast<std::uint8_t>(state >> (kK - 2));
    const unsigned odd = static_cast<unsigned>((survivors[t] >> state) & 1u);
    state = ((state << 1) | odd) & (kStates - 1);
  }
  return out;
}

}  // namespace

Bits viterbi_decode(const Bits& coded, std::size_t n_out, CodeRate rate) {
  std::vector<double> llr(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llr[i] = coded[i] ? -1.0 : 1.0;
  }
  return viterbi_decode_soft(llr, n_out, rate);
}

Bits viterbi_decode_soft(const std::vector<double>& llr, std::size_t n_out,
                         CodeRate rate) {
  // The widest build this CPU runs, picked once per process.
  static const TrellisPass pass = [] {
    for (const detail::TrellisBuild build :
         {detail::TrellisBuild::kAvx512, detail::TrellisBuild::kAvx2}) {
      if (detail::trellis_build_runs_here(build)) return pass_for(build);
    }
    return pass_for(detail::TrellisBuild::kBaseline);
  }();
  return decode_soft(pass, llr, n_out, rate);
}

namespace detail {

void depuncture(const std::vector<double>& llr, std::size_t first,
                std::size_t n_steps, CodeRate rate, double* out) {
  switch (rate) {
    case CodeRate::kRate1_2:
      return depuncture_rate<CodeRate::kRate1_2>(llr, first, n_steps, out);
    case CodeRate::kRate2_3:
      return depuncture_rate<CodeRate::kRate2_3>(llr, first, n_steps, out);
    case CodeRate::kRate3_4:
      return depuncture_rate<CodeRate::kRate3_4>(llr, first, n_steps, out);
  }
}

const char* trellis_build_name(TrellisBuild build) {
  switch (build) {
    case TrellisBuild::kBaseline:
      return "baseline";
    case TrellisBuild::kAvx2:
      return "avx2";
    case TrellisBuild::kAvx512:
      return "avx512";
  }
  return "?";
}

bool trellis_build_runs_here(TrellisBuild build) {
  if (build == TrellisBuild::kBaseline) return true;
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (build == TrellisBuild::kAvx512) {
    return __builtin_cpu_supports("avx512f") != 0;
  }
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Bits viterbi_decode_soft_with(TrellisBuild build,
                              const std::vector<double>& llr,
                              std::size_t n_out, CodeRate rate) {
  return decode_soft(pass_for(build), llr, n_out, rate);
}

}  // namespace detail

}  // namespace nplus::phy
