#include "phy/constellation.h"

#include <array>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "linalg/simd/kernels.h"
#include "phy/interleaver.h"

namespace nplus::phy {

namespace {

// Symbols hard-demapped per batched point_distances call. 96 lanes keeps
// the 64-point distance table at 48 KiB per thread.
constexpr std::size_t kDemapChunk = 96;

// Fills the per-chunk distance table d[w * lanes + l] = |y_l - pts[w]|^2
// through the batch kernel, from thread-local SoA scratch.
void chunk_distances(const std::vector<cdouble>& symbols, std::size_t s0,
                     std::size_t lanes, const std::vector<cdouble>& pts,
                     std::vector<double>& yr, std::vector<double>& yi,
                     std::vector<double>& dist) {
  yr.resize(lanes);
  yi.resize(lanes);
  dist.resize(pts.size() * lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    yr[l] = symbols[s0 + l].real();
    yi[l] = symbols[s0 + l].imag();
  }
  linalg::simd::point_distances(yr.data(), yi.data(), lanes, pts.data(),
                                pts.size(), dist.data());
}

// 802.11a Gray mapping on each axis. For 16-QAM the 2-bit-per-axis map is
// (b0 b1) -> {-3, -1, +3, +1} scaled; for 64-QAM the 3-bit map is
// (b0 b1 b2) -> {-7,-5,-1,-3,+7,+5,+1,+3} scaled (17.3.5.8 of the standard).
constexpr std::array<double, 2> kPam2 = {-1.0, 1.0};
constexpr std::array<double, 4> kPam4 = {-3.0, -1.0, 3.0, 1.0};
constexpr std::array<double, 8> kPam8 = {-7.0, -5.0, -1.0, -3.0,
                                         7.0,  5.0,  1.0,  3.0};

// Minima of the squared distance from one coordinate y to the 2^kBits
// levels of an axis: over all levels, and over the levels whose axis bit p
// is 0 / 1.
template <std::size_t kBits>
struct AxisMin {
  double all;
  std::array<double, kBits> zero;
  std::array<double, kBits> one;
};

// Where the minima of AxisMin lie. The levels of an axis, sorted, split at
// y into those at or below it and those above; m, the number at or below,
// is y's bracket. fl(y - l) is monotone in l and fl(d * d) is monotone in
// |d|, so over any set of levels the smallest square is that of the
// set's nearest level at or below y or of its nearest level above y: the
// two levels of the set that bracket y. For each m the table holds the
// sorted positions of those two levels, over all levels and over each bit
// half, with kLevels for "no such level".
template <std::size_t kBits>
struct AxisBrackets {
  static constexpr std::size_t kLevels = std::size_t{1} << kBits;
  using Pair = std::array<std::uint8_t, 2>;  // {at or below, above}
  std::array<std::uint8_t, kLevels> word;    // word of the i-th lowest level
  std::array<Pair, kLevels + 1> all;
  std::array<std::array<std::array<Pair, 2>, kBits>, kLevels + 1> half;
};

template <std::size_t kBits>
constexpr AxisBrackets<kBits> axis_brackets(
    const std::array<double, std::size_t{1} << kBits>& pam) {
  constexpr std::size_t n = std::size_t{1} << kBits;
  AxisBrackets<kBits> t{};
  for (std::size_t i = 0; i < n; ++i) t.word[i] = static_cast<std::uint8_t>(i);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = i + 1; k < n; ++k) {
      if (pam[t.word[k]] < pam[t.word[i]]) std::swap(t.word[i], t.word[k]);
    }
  }
  const auto none = static_cast<std::uint8_t>(n);
  for (std::size_t m = 0; m <= n; ++m) {
    t.all[m] = {m > 0 ? static_cast<std::uint8_t>(m - 1) : none,
                m < n ? static_cast<std::uint8_t>(m) : none};
    for (std::size_t p = 0; p < kBits; ++p) {
      for (std::size_t v = 0; v < 2; ++v) {
        auto& pair = t.half[m][p][v];
        pair = {none, none};
        for (std::size_t i = 0; i < n; ++i) {
          if (((t.word[i] >> p) & 1u) != v) continue;
          if (i < m) pair[0] = static_cast<std::uint8_t>(i);
          if (i >= m && pair[1] == none) pair[1] = static_cast<std::uint8_t>(i);
        }
      }
    }
  }
  return t;
}

// The Gray levels of an axis carrying kBits bits (scale aside); BPSK's Q
// axis carries none and has the one level 0.
template <std::size_t kBits>
constexpr std::array<double, std::size_t{1} << kBits> pam_levels() {
  if constexpr (kBits == 0) {
    return {0.0};
  } else if constexpr (kBits == 1) {
    return kPam2;
  } else if constexpr (kBits == 2) {
    return kPam4;
  } else {
    return kPam8;
  }
}

template <std::size_t kBits>
constexpr AxisBrackets<kBits> kBrackets = axis_brackets<kBits>(
    pam_levels<kBits>());

// AxisMin of y over the levels `sorted` (ascending), each half's minimum
// from the squares of its two bracketing levels. The bracket count is
// exact (a compare per level), and the missing-level slot reads +inf.
// std::min keeps its first argument when the second is NaN: a NaN y
// brackets at m = 0, where every "at or below" slot is the +inf one, so
// every minimum is +inf, as a scan that skips NaN squares gives.
template <std::size_t kBits>
[[gnu::always_inline]] inline AxisMin<kBits> axis_min(
    double y, const std::array<double, 8>& sorted) {
  constexpr std::size_t n = AxisBrackets<kBits>::kLevels;
  constexpr const AxisBrackets<kBits>& t = kBrackets<kBits>;
  std::array<double, n + 1> sq;
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = y - sorted[i];
    sq[i] = d * d;
    m += sorted[i] <= y ? 1 : 0;
  }
  sq[n] = std::numeric_limits<double>::infinity();
  AxisMin<kBits> r;
  r.all = std::min(sq[t.all[m][0]], sq[t.all[m][1]]);
  for (std::size_t p = 0; p < kBits; ++p) {
    const auto& h = t.half[m][p];
    r.zero[p] = std::min(sq[h[0][0]], sq[h[0][1]]);
    r.one[p] = std::min(sq[h[1][0]], sq[h[1][1]]);
  }
  return r;
}

// Max-log soft demap of symbols [0, n_symbols) over a square grid of
// 2^kIBits x 2^kQBits points. Word w = (i << kQBits) | j is the point
// (I[i], Q[j]): the high bits pick the I level, the low bits the Q level
// (BPSK: one I bit, Q = {0}). So |y - x_w|^2 = A[i] + B[j] with
// A[i] = (yr - I[i])^2, B[j] = (yi - Q[j])^2, the same operations in the
// same order as a per-point dr*dr + di*di. Rounding is monotone, so the
// minimum of fl(A[i] + B[j]) over a bit's half of the grid is exactly
// fl(min A over its I levels + min B over its Q levels). Squares are never
// negative, and a NaN coordinate makes its whole axis NaN, which both forms
// skip, so the identity holds for NaN and +-inf symbols too.
//
// LLR j of the frame goes to llr[j], or, given `from`, LLR j of each block
// of from.size() goes to slot from[j] of that block.
template <std::size_t kIBits, std::size_t kQBits>
void demap_soft_axes(const std::vector<cdouble>& symbols,
                     std::size_t n_symbols,
                     const std::vector<double>& noise_var,
                     const std::vector<cdouble>& pts,
                     const std::vector<std::size_t>* from, double* llr) {
  constexpr std::size_t kBps = kIBits + kQBits;
  std::array<double, 8> sorted_i{};
  std::array<double, 8> sorted_q{};
  for (std::size_t i = 0; i < (std::size_t{1} << kIBits); ++i) {
    sorted_i[i] = pts[std::size_t{kBrackets<kIBits>.word[i]} << kQBits].real();
  }
  for (std::size_t j = 0; j < (std::size_t{1} << kQBits); ++j) {
    sorted_q[j] = pts[kBrackets<kQBits>.word[j]].imag();
  }
  double* block = llr;
  std::size_t slot = 0;
  for (std::size_t s = 0; s < n_symbols; ++s) {
    const double nv =
        noise_var.empty()
            ? 1.0
            : std::max(noise_var[std::min(s, noise_var.size() - 1)], 1e-12);
    const AxisMin<kIBits> mi = axis_min<kIBits>(symbols[s].real(), sorted_i);
    const AxisMin<kQBits> mq = axis_min<kQBits>(symbols[s].imag(), sorted_q);
    // LLR_b = (min_{x: bit=1} |y-x|^2 - min_{x: bit=0} |y-x|^2) / nv, MSB
    // first as map_bits: the I bits, then the Q bits.
    std::array<double, kBps> v;
    std::size_t b = 0;
    for (std::size_t p = kIBits; p-- > 0;) {
      v[b++] = ((mi.one[p] + mq.all) - (mi.zero[p] + mq.all)) / nv;
    }
    for (std::size_t p = kQBits; p-- > 0;) {
      v[b++] = ((mi.all + mq.one[p]) - (mi.all + mq.zero[p])) / nv;
    }
    if (from == nullptr) {
      for (std::size_t k = 0; k < kBps; ++k) llr[s * kBps + k] = v[k];
      continue;
    }
    for (std::size_t k = 0; k < kBps; ++k) block[(*from)[slot + k]] = v[k];
    slot += kBps;
    if (slot == from->size()) {
      block += slot;
      slot = 0;
    }
  }
}

// demap_soft_axes for modulation m.
void demap_soft_into(const std::vector<cdouble>& symbols,
                     std::size_t n_symbols,
                     const std::vector<double>& noise_var, Modulation m,
                     const std::vector<std::size_t>* from, double* llr) {
  const auto& pts = constellation_points(m);
  switch (m) {
    case Modulation::kBpsk:
      return demap_soft_axes<1, 0>(symbols, n_symbols, noise_var, pts, from,
                                   llr);
    case Modulation::kQpsk:
      return demap_soft_axes<1, 1>(symbols, n_symbols, noise_var, pts, from,
                                   llr);
    case Modulation::kQam16:
      return demap_soft_axes<2, 2>(symbols, n_symbols, noise_var, pts, from,
                                   llr);
    case Modulation::kQam64:
      return demap_soft_axes<3, 3>(symbols, n_symbols, noise_var, pts, from,
                                   llr);
  }
}

double kmod(Modulation m) {
  switch (m) {
    case Modulation::kBpsk:
      return 1.0;
    case Modulation::kQpsk:
      return 1.0 / std::sqrt(2.0);
    case Modulation::kQam16:
      return 1.0 / std::sqrt(10.0);
    case Modulation::kQam64:
      return 1.0 / std::sqrt(42.0);
  }
  return 1.0;
}

// Q function.
double qfunc(double x) { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

std::vector<cdouble> build_points(Modulation m) {
  const double k = kmod(m);
  std::vector<cdouble> pts;
  switch (m) {
    case Modulation::kBpsk:
      pts = {cdouble{-1.0, 0.0}, cdouble{1.0, 0.0}};
      break;
    case Modulation::kQpsk:
      pts.resize(4);
      for (std::size_t w = 0; w < 4; ++w) {
        // bit0 -> I, bit1 -> Q.
        pts[w] = k * cdouble{kPam2[w >> 1 & 1], kPam2[w & 1]};
      }
      break;
    case Modulation::kQam16:
      pts.resize(16);
      for (std::size_t w = 0; w < 16; ++w) {
        // bits (b3 b2 b1 b0) with (b3 b2) -> I axis, (b1 b0) -> Q axis.
        pts[w] = k * cdouble{kPam4[(w >> 2) & 3], kPam4[w & 3]};
      }
      break;
    case Modulation::kQam64:
      pts.resize(64);
      for (std::size_t w = 0; w < 64; ++w) {
        pts[w] = k * cdouble{kPam8[(w >> 3) & 7], kPam8[w & 7]};
      }
      break;
  }
  return pts;
}

}  // namespace

std::size_t bits_per_symbol(Modulation m) {
  switch (m) {
    case Modulation::kBpsk:
      return 1;
    case Modulation::kQpsk:
      return 2;
    case Modulation::kQam16:
      return 4;
    case Modulation::kQam64:
      return 6;
  }
  return 1;
}

const char* modulation_name(Modulation m) {
  switch (m) {
    case Modulation::kBpsk:
      return "BPSK";
    case Modulation::kQpsk:
      return "QPSK";
    case Modulation::kQam16:
      return "16QAM";
    case Modulation::kQam64:
      return "64QAM";
  }
  return "?";
}

const std::vector<cdouble>& constellation_points(Modulation m) {
  static const std::vector<cdouble> bpsk = build_points(Modulation::kBpsk);
  static const std::vector<cdouble> qpsk = build_points(Modulation::kQpsk);
  static const std::vector<cdouble> qam16 = build_points(Modulation::kQam16);
  static const std::vector<cdouble> qam64 = build_points(Modulation::kQam64);
  switch (m) {
    case Modulation::kBpsk:
      return bpsk;
    case Modulation::kQpsk:
      return qpsk;
    case Modulation::kQam16:
      return qam16;
    case Modulation::kQam64:
      return qam64;
  }
  return bpsk;
}

std::vector<cdouble> map_bits(const Bits& bits, Modulation m) {
  const std::size_t bps = bits_per_symbol(m);
  assert(bits.size() % bps == 0);
  const auto& pts = constellation_points(m);
  std::vector<cdouble> out;
  out.reserve(bits.size() / bps);
  for (std::size_t i = 0; i < bits.size(); i += bps) {
    std::size_t word = 0;
    for (std::size_t b = 0; b < bps; ++b) {
      word = (word << 1) | (bits[i + b] & 1u);
    }
    out.push_back(pts[word]);
  }
  return out;
}

Bits demap_hard(const std::vector<cdouble>& symbols, Modulation m) {
  const std::size_t bps = bits_per_symbol(m);
  const auto& pts = constellation_points(m);
  Bits out;
  out.reserve(symbols.size() * bps);
  static thread_local std::vector<double> yr, yi, dist;
  for (std::size_t s0 = 0; s0 < symbols.size(); s0 += kDemapChunk) {
    const std::size_t lanes = std::min(kDemapChunk, symbols.size() - s0);
    chunk_distances(symbols, s0, lanes, pts, yr, yi, dist);
    for (std::size_t l = 0; l < lanes; ++l) {
      std::size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (std::size_t w = 0; w < pts.size(); ++w) {
        const double d = dist[w * lanes + l];
        if (d < best_d) {
          best_d = d;
          best = w;
        }
      }
      for (std::size_t b = bps; b-- > 0;) {
        out.push_back(static_cast<std::uint8_t>((best >> b) & 1u));
      }
    }
  }
  return out;
}

std::vector<double> demap_soft(const std::vector<cdouble>& symbols,
                               const std::vector<double>& noise_var,
                               Modulation m) {
  std::vector<double> llr(symbols.size() * bits_per_symbol(m));
  demap_soft_into(symbols, symbols.size(), noise_var, m, nullptr, llr.data());
  return llr;
}

void demap_soft_deinterleaved(const std::vector<cdouble>& symbols,
                              const std::vector<double>& noise_var,
                              Modulation m, std::size_t n_cbps,
                              std::vector<double>& out) {
  const std::size_t bps = bits_per_symbol(m);
  assert(n_cbps % bps == 0 && out.size() % n_cbps == 0);
  assert(symbols.size() * bps >= out.size());
  demap_soft_into(symbols, out.size() / bps, noise_var, m,
                  &deinterleave_map(n_cbps, bps), out.data());
}

double ber_awgn(Modulation m, double snr_linear) {
  if (snr_linear <= 0.0) return 0.5;
  switch (m) {
    case Modulation::kBpsk:
      return qfunc(std::sqrt(2.0 * snr_linear));
    case Modulation::kQpsk:
      return qfunc(std::sqrt(snr_linear));
    case Modulation::kQam16:
      // Gray-coded square M-QAM approximation:
      // P_b ~ 4/log2(M) * (1 - 1/sqrt(M)) * Q(sqrt(3 snr/(M-1))).
      return (4.0 / 4.0) * (1.0 - 0.25) * qfunc(std::sqrt(snr_linear / 5.0));
    case Modulation::kQam64:
      return (4.0 / 6.0) * (1.0 - 1.0 / 8.0) *
             qfunc(std::sqrt(snr_linear / 21.0));
  }
  return 0.5;
}

}  // namespace nplus::phy
