// The batch kernels: plain lane loops whose per-lane arithmetic mirrors
// linalg/mat.cc statement by statement — the same products in the same
// association (see each kernel's note). This TU is compiled with
// -ffp-contract=off (CMakeLists.txt), so the compiler cannot fuse any of
// these multiply-adds; whatever it vectorizes stays per-lane IEEE add/mul,
// byte-identical to the scalar reference.
//
// The kernels stay out-of-line here on purpose: perfbench/entry_points.def
// interposes on their mangled names at link time.
#include "linalg/simd/kernels.h"

#include <cassert>

namespace nplus::linalg::simd {

// Mirrors mul_into(CMat, CVec, CVec&): per row, accumulators start at 0.0
// and add (ar*xr - ai*xi) / (ar*xi + ai*xr) over columns in order.
void matvec(const CBatch& a, const CBatch& x, CBatch& out) {
  assert(x.rows() == a.cols() && x.cols() == 1);
  assert(x.lanes() == a.lanes());
  out.resize(a.rows(), 1, a.lanes());
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t lanes = a.lanes();
  const double* are = a.re();
  const double* aim = a.im();
  const double* xre = x.re();
  const double* xim = x.im();
  for (std::size_t r = 0; r < m; ++r) {
    double* sre = out.re() + r * lanes;
    double* sim = out.im() + r * lanes;
    for (std::size_t l = 0; l < lanes; ++l) {
      sre[l] = 0.0;
      sim[l] = 0.0;
    }
    for (std::size_t c = 0; c < n; ++c) {
      const double* ar = are + (r * n + c) * lanes;
      const double* ai = aim + (r * n + c) * lanes;
      const double* xr = xre + c * lanes;
      const double* xi = xim + c * lanes;
      for (std::size_t l = 0; l < lanes; ++l) {
        sre[l] += ar[l] * xr[l] - ai[l] * xi[l];
        sim[l] += ar[l] * xi[l] + ai[l] * xr[l];
      }
    }
  }
}

// Mirrors mul_into(CMat, CMat, CMat&): ikj order, the k = 0 pass assigns
// the output row, k >= 1 passes extend it with the left-associated
// `o + ar*br - ai*bi` chains.
void matmul(const CBatch& a, const CBatch& b, CBatch& out) {
  assert(b.rows() == a.cols());
  assert(b.lanes() == a.lanes());
  out.resize(a.rows(), b.cols(), a.lanes());
  const std::size_t m = a.rows();
  const std::size_t kk = a.cols();
  const std::size_t p = b.cols();
  const std::size_t lanes = a.lanes();
  if (kk == 0) {
    double* ore = out.re();
    double* oim = out.im();
    const std::size_t total = out.size();
    for (std::size_t i = 0; i < total; ++i) {
      ore[i] = 0.0;
      oim[i] = 0.0;
    }
    return;
  }
  const double* are = a.re();
  const double* aim = a.im();
  const double* bre = b.re();
  const double* bim = b.im();
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < p; ++c) {
      const double* ar = are + (r * kk + 0) * lanes;
      const double* ai = aim + (r * kk + 0) * lanes;
      const double* br = bre + (0 * p + c) * lanes;
      const double* bi = bim + (0 * p + c) * lanes;
      double* ore = out.re() + (r * p + c) * lanes;
      double* oim = out.im() + (r * p + c) * lanes;
      for (std::size_t l = 0; l < lanes; ++l) {
        ore[l] = ar[l] * br[l] - ai[l] * bi[l];
        oim[l] = ar[l] * bi[l] + ai[l] * br[l];
      }
    }
    for (std::size_t k = 1; k < kk; ++k) {
      for (std::size_t c = 0; c < p; ++c) {
        const double* ar = are + (r * kk + k) * lanes;
        const double* ai = aim + (r * kk + k) * lanes;
        const double* br = bre + (k * p + c) * lanes;
        const double* bi = bim + (k * p + c) * lanes;
        double* ore = out.re() + (r * p + c) * lanes;
        double* oim = out.im() + (r * p + c) * lanes;
        for (std::size_t l = 0; l < lanes; ++l) {
          ore[l] = ore[l] + ar[l] * br[l] - ai[l] * bi[l];
          oim[l] = oim[l] + ar[l] * bi[l] + ai[l] * br[l];
        }
      }
    }
  }
}

// Mirrors the naive complex product v * s (CMat::operator*= and the decode
// path's phase-fix multiply): both reduce to these two products per
// component, and IEEE add/mul commute, so one formula covers either
// operand order bit for bit.
void scale(CBatch& m, cdouble s) {
  const double sr = s.real();
  const double si = s.imag();
  double* re = m.re();
  double* im = m.im();
  const std::size_t total = m.size();
  for (std::size_t i = 0; i < total; ++i) {
    const double tr = re[i];
    const double ti = im[i];
    re[i] = tr * sr - ti * si;
    im[i] = tr * si + ti * sr;
  }
}

// Mirrors `0.5 * (b1 + b2)`: componentwise sum, then scale by 0.5.
void halfsum(const CBatch& a, const CBatch& b, CBatch& out) {
  assert(a.rows() == b.rows() && a.cols() == b.cols());
  assert(a.lanes() == b.lanes());
  out.resize(a.rows(), a.cols(), a.lanes());
  const double* are = a.re();
  const double* aim = a.im();
  const double* bre = b.re();
  const double* bim = b.im();
  double* ore = out.re();
  double* oim = out.im();
  const std::size_t total = out.size();
  for (std::size_t i = 0; i < total; ++i) {
    ore[i] = (are[i] + bre[i]) * 0.5;
    oim[i] = (aim[i] + bim[i]) * 0.5;
  }
}

// Mirrors std::norm(y - pts[w]) (libstdc++ norm is re*re + im*im).
void point_distances(const double* yr, const double* yi, std::size_t lanes,
                     const cdouble* pts, std::size_t n_pts, double* d) {
  for (std::size_t w = 0; w < n_pts; ++w) {
    const double pr = pts[w].real();
    const double pi = pts[w].imag();
    double* dw = d + w * lanes;
    for (std::size_t l = 0; l < lanes; ++l) {
      const double dr = yr[l] - pr;
      const double di = yi[l] - pi;
      dw[l] = dr * dr + di * di;
    }
  }
}

}  // namespace nplus::linalg::simd
