#include "phy/constellation.h"

#include <array>
#include <cassert>
#include <cmath>
#include <limits>

#include "linalg/simd/kernels.h"

namespace nplus::phy {

namespace {

// Symbols demapped per batched point_distances call. The per-lane distance
// std::norm(y - pts[w]) is computed once per chunk and shared by the
// per-bit min scans (the scalar code recomputed it per bit; the value is a
// pure function of (y, w), so reuse cannot change a byte). 96 lanes keeps
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
  const std::size_t bps = bits_per_symbol(m);
  const auto& pts = constellation_points(m);
  std::vector<double> llr;
  llr.reserve(symbols.size() * bps);
  static thread_local std::vector<double> yr, yi, dist;
  for (std::size_t s0 = 0; s0 < symbols.size(); s0 += kDemapChunk) {
    const std::size_t lanes = std::min(kDemapChunk, symbols.size() - s0);
    chunk_distances(symbols, s0, lanes, pts, yr, yi, dist);
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::size_t s = s0 + l;
      const double nv =
          noise_var.empty()
              ? 1.0
              : std::max(noise_var[std::min(s, noise_var.size() - 1)], 1e-12);
      // Max-log: LLR_b = (min_{x: bit=1} |y-x|^2 - min_{x: bit=0}
      // |y-x|^2)/nv, over the chunk's precomputed distance table.
      for (std::size_t b = 0; b < bps; ++b) {
        const std::size_t bitpos = bps - 1 - b;  // MSB first, as map_bits
        double d0 = std::numeric_limits<double>::infinity();
        double d1 = std::numeric_limits<double>::infinity();
        for (std::size_t w = 0; w < pts.size(); ++w) {
          const double d = dist[w * lanes + l];
          if ((w >> bitpos) & 1u) {
            d1 = std::min(d1, d);
          } else {
            d0 = std::min(d0, d);
          }
        }
        llr.push_back((d1 - d0) / nv);
      }
    }
  }
  return llr;
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
