// Byte-identity harness for the SIMD batch engine (src/linalg/simd/).
//
// The contract says: every batch kernel must produce, on each lane,
// bit-for-bit the output of its scalar linalg/mat.cc reference — no FMA,
// no reassociation, no cross-lane reductions. This suite enforces it with
// randomized sweeps (several seeds, matrix dims 1..4, lane counts from 1
// through 52 so every remainder of a vectorized lane loop is hit),
// memcmp-comparing whole output planes. On top of the kernel sweeps it
// checks the chunked demappers against a per-symbol max-log reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstring>
#include <limits>
#include <vector>

#include "linalg/mat.h"
#include "linalg/simd/batch.h"
#include "linalg/simd/kernels.h"
#include "phy/constellation.h"
#include "util/rng.h"

namespace nplus::linalg::simd {
namespace {

using linalg::CMat;
using linalg::CVec;

// Lane counts covering every remainder of a vectorized lane loop: below
// one vector block, exact blocks, odd tails, and the two production sizes
// (48 data subcarriers, 52 used subcarriers).
const std::vector<std::size_t> kLaneSweep = {1, 2, 3, 4, 5, 7, 8, 13, 48, 52};
const std::vector<std::uint32_t> kSeeds = {1, 2, 3, 7, 1234};

void fill_random(CBatch& b, util::Rng& rng) {
  for (std::size_t i = 0; i < b.size(); ++i) {
    const cdouble v = rng.cgaussian();
    b.re()[i] = v.real();
    b.im()[i] = v.imag();
  }
}

// Bitwise plane comparison; reports the first differing element.
void expect_planes_equal(const CBatch& got, const CBatch& want,
                         const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  const bool re_eq = std::memcmp(got.re(), want.re(),
                                 got.size() * sizeof(double)) == 0;
  const bool im_eq = std::memcmp(got.im(), want.im(),
                                 got.size() * sizeof(double)) == 0;
  if (re_eq && im_eq) return;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.re()[i], want.re()[i])
        << what << " re[" << i << "]";
    ASSERT_EQ(got.im()[i], want.im()[i])
        << what << " im[" << i << "]";
  }
  FAIL() << what << ": planes differ in sign-of-zero or NaN payload only";
}

// --- Kernel sweeps vs the per-lane mat.cc reference ----------------------

TEST(SimdKernels, MatvecMatchesScalarReference) {
  for (std::uint32_t seed : kSeeds) {
    for (std::size_t m = 1; m <= 4; ++m) {
      for (std::size_t n = 1; n <= 4; ++n) {
        for (std::size_t lanes : kLaneSweep) {
          util::Rng rng(seed + 97 * m + 13 * n + lanes);
          CBatch a(m, n, lanes), x(n, 1, lanes);
          fill_random(a, rng);
          fill_random(x, rng);

          // Reference: lane-by-lane linalg::mul_into(CMat, CVec, CVec&).
          CBatch want(m, 1, lanes);
          CMat al;
          CVec xl, ol;
          for (std::size_t l = 0; l < lanes; ++l) {
            a.get_lane(l, al);
            x.get_lane(l, xl);
            linalg::mul_into(al, xl, ol);
            want.set_lane(l, ol);
          }

          CBatch got;
          matvec(a, x, got);
          expect_planes_equal(got, want, "matvec");
        }
      }
    }
  }
}

TEST(SimdKernels, MatmulMatchesScalarReference) {
  for (std::uint32_t seed : kSeeds) {
    for (std::size_t m = 1; m <= 4; ++m) {
      for (std::size_t k = 1; k <= 4; ++k) {
        for (std::size_t p = 1; p <= 3; ++p) {
          for (std::size_t lanes : kLaneSweep) {
            util::Rng rng(seed + 31 * m + 7 * k + 3 * p + lanes);
            CBatch a(m, k, lanes), b(k, p, lanes);
            fill_random(a, rng);
            fill_random(b, rng);

            CBatch want(m, p, lanes);
            CMat al, bl, ol;
            for (std::size_t l = 0; l < lanes; ++l) {
              a.get_lane(l, al);
              b.get_lane(l, bl);
              linalg::mul_into(al, bl, ol);
              want.set_lane(l, ol);
            }

            CBatch got;
            matmul(a, b, got);
            expect_planes_equal(got, want, "matmul");
          }
        }
      }
    }
  }
}

TEST(SimdKernels, ScaleMatchesComplexProduct) {
  for (std::uint32_t seed : kSeeds) {
    for (std::size_t m = 1; m <= 3; ++m) {
      for (std::size_t lanes : kLaneSweep) {
        util::Rng rng(seed + 11 * m + lanes);
        CBatch v(m, 2, lanes);
        fill_random(v, rng);
        const cdouble s = rng.cgaussian();

        // Reference: both scalar forms the engine replaces — the
        // elementwise CMat *= s and the std::complex product v * s (the
        // decode path's `s_hat[j] * phase_fix`). Both must match the
        // kernel bit for bit.
        CBatch want = v;
        CMat ml;
        for (std::size_t l = 0; l < lanes; ++l) {
          v.get_lane(l, ml);
          ml *= s;
          want.set_lane(l, ml);
        }
        for (std::size_t i = 0; i < v.size(); ++i) {
          const cdouble prod = cdouble{v.re()[i], v.im()[i]} * s;
          ASSERT_EQ(prod.real(), want.re()[i]);
          ASSERT_EQ(prod.imag(), want.im()[i]);
        }

        CBatch got = v;
        scale(got, s);
        expect_planes_equal(got, want, "scale");
      }
    }
  }
}

TEST(SimdKernels, HalfsumMatchesScalarReference) {
  for (std::uint32_t seed : kSeeds) {
    for (std::size_t lanes : kLaneSweep) {
      util::Rng rng(seed + lanes);
      CBatch a(1, 1, lanes), b(1, 1, lanes);
      fill_random(a, rng);
      fill_random(b, rng);

      CBatch want(1, 1, lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        const cdouble avg = 0.5 * (cdouble{a.re()[l], a.im()[l]} +
                                   cdouble{b.re()[l], b.im()[l]});
        want.re()[l] = avg.real();
        want.im()[l] = avg.imag();
      }

      CBatch got;
      halfsum(a, b, got);
      expect_planes_equal(got, want, "halfsum");
    }
  }
}

TEST(SimdKernels, PointDistancesMatchStdNorm) {
  for (std::uint32_t seed : kSeeds) {
    for (phy::Modulation m :
         {phy::Modulation::kBpsk, phy::Modulation::kQpsk,
          phy::Modulation::kQam16, phy::Modulation::kQam64}) {
      const auto& pts = phy::constellation_points(m);
      for (std::size_t lanes : kLaneSweep) {
        util::Rng rng(seed + 5 * lanes + pts.size());
        std::vector<double> yr(lanes), yi(lanes);
        for (std::size_t l = 0; l < lanes; ++l) {
          const cdouble y = rng.cgaussian();
          yr[l] = y.real();
          yi[l] = y.imag();
        }

        std::vector<double> want(pts.size() * lanes);
        for (std::size_t w = 0; w < pts.size(); ++w) {
          for (std::size_t l = 0; l < lanes; ++l) {
            want[w * lanes + l] = std::norm(cdouble{yr[l], yi[l]} - pts[w]);
          }
        }

        std::vector<double> got(pts.size() * lanes, -1.0);
        point_distances(yr.data(), yi.data(), lanes, pts.data(), pts.size(),
                        got.data());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(double)),
                  0)
            << "point_distances lanes=" << lanes << " n_pts=" << pts.size();
      }
    }
  }
}

// --- Chunked demap vs a per-symbol max-log reference -------------------

// Symbol counts exercising the demap chunking tails: below one chunk, one
// short of / exactly / one past the 96-lane chunk, and multi-chunk.
const std::vector<std::size_t> kDemapSizes = {1, 5, 95, 96, 97, 200};

TEST(SimdDemap, HardAndSoftMatchPerSymbolMaxLogReference) {
  for (phy::Modulation m :
       {phy::Modulation::kBpsk, phy::Modulation::kQpsk,
        phy::Modulation::kQam16, phy::Modulation::kQam64}) {
    const auto& pts = phy::constellation_points(m);
    const std::size_t bps = phy::bits_per_symbol(m);
    for (std::size_t n_syms : kDemapSizes) {
      util::Rng rng(40 + n_syms + bps);
      std::vector<cdouble> syms(n_syms);
      std::vector<double> nv(n_syms);
      for (std::size_t i = 0; i < n_syms; ++i) {
        syms[i] = rng.cgaussian();
        nv[i] = 0.01 + 0.5 * std::norm(rng.cgaussian());
      }

      // Reference: one symbol at a time, distances from std::norm. Hard:
      // the first nearest point's bits, MSB first. Soft: max-log
      // LLR_b = (min_{bit=1} d - min_{bit=0} d) / nv.
      phy::Bits want_hard;
      std::vector<double> want_soft;
      for (std::size_t s = 0; s < n_syms; ++s) {
        std::vector<double> d(pts.size());
        for (std::size_t w = 0; w < pts.size(); ++w) {
          d[w] = std::norm(syms[s] - pts[w]);
        }
        const std::size_t best = static_cast<std::size_t>(
            std::min_element(d.begin(), d.end()) - d.begin());
        for (std::size_t b = bps; b-- > 0;) {
          want_hard.push_back(static_cast<std::uint8_t>((best >> b) & 1u));
        }
        const double nvs = std::max(nv[s], 1e-12);
        for (std::size_t b = bps; b-- > 0;) {
          double d0 = std::numeric_limits<double>::infinity();
          double d1 = std::numeric_limits<double>::infinity();
          for (std::size_t w = 0; w < pts.size(); ++w) {
            double& dmin = ((w >> b) & 1u) ? d1 : d0;
            dmin = std::min(dmin, d[w]);
          }
          want_soft.push_back((d1 - d0) / nvs);
        }
      }

      EXPECT_EQ(phy::demap_hard(syms, m), want_hard)
          << phy::modulation_name(m) << " n=" << n_syms;
      const auto soft = phy::demap_soft(syms, nv, m);
      ASSERT_EQ(soft.size(), want_soft.size());
      EXPECT_EQ(std::memcmp(soft.data(), want_soft.data(),
                            soft.size() * sizeof(double)),
                0)
          << phy::modulation_name(m) << " n=" << n_syms;
    }
  }
}

}  // namespace
}  // namespace nplus::linalg::simd
