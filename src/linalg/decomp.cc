#include "linalg/decomp.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

namespace nplus::linalg {

namespace {

// Applies a Householder reflector H = I - tau v v^H (v stored in `v`) to the
// columns [c0, cols) of `m`, acting on rows [r0, r0 + v.size()).
void apply_householder_left(CMat& m, const CVec& v, cdouble tau,
                            std::size_t r0, std::size_t c0) {
  const std::size_t len = v.size();
  for (std::size_t c = c0; c < m.cols(); ++c) {
    cdouble s{0.0, 0.0};
    for (std::size_t i = 0; i < len; ++i) s += std::conj(v[i]) * m(r0 + i, c);
    s *= tau;
    for (std::size_t i = 0; i < len; ++i) m(r0 + i, c) -= s * v[i];
  }
}

}  // namespace

Lu lu_factor(const CMat& a, double tol) {
  Lu f;
  lu_factor_into(a, f, tol);
  return f;
}

void lu_factor_into(const CMat& a, Lu& f, double tol) {
  assert(a.rows() == a.cols());
  const std::size_t n = a.rows();
  f.lu = a;
  f.sign = 1;
  f.singular = false;
  f.perm.resize(n);
  std::iota(f.perm.begin(), f.perm.end(), std::size_t{0});

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest magnitude in column k at/below row k.
    std::size_t piv = k;
    double best = std::abs(f.lu(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::abs(f.lu(r, k));
      if (mag > best) {
        best = mag;
        piv = r;
      }
    }
    if (best < tol) {
      f.singular = true;
      continue;
    }
    if (piv != k) {
      for (std::size_t c = 0; c < n; ++c)
        std::swap(f.lu(piv, c), f.lu(k, c));
      std::swap(f.perm[piv], f.perm[k]);
      f.sign = -f.sign;
    }
    const cdouble inv_pivot = cdouble{1.0, 0.0} / f.lu(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const cdouble factor = f.lu(r, k) * inv_pivot;
      f.lu(r, k) = factor;
      for (std::size_t c = k + 1; c < n; ++c)
        f.lu(r, c) -= factor * f.lu(k, c);
    }
  }
}

CVec lu_solve(const Lu& f, const CVec& b) {
  CVec x;
  lu_solve_into(f, b, x);
  return x;
}

void lu_solve_into(const Lu& f, const CVec& b, CVec& x) {
  const std::size_t n = f.lu.rows();
  assert(b.size() == n);
  assert(x.data() != b.data());
  x.resize(n);
  // Forward substitution with permuted b (L has unit diagonal).
  for (std::size_t r = 0; r < n; ++r) {
    cdouble s = b[f.perm[r]];
    for (std::size_t c = 0; c < r; ++c) s -= f.lu(r, c) * x[c];
    x[r] = s;
  }
  // Back substitution with U.
  for (std::size_t ri = n; ri-- > 0;) {
    cdouble s = x[ri];
    for (std::size_t c = ri + 1; c < n; ++c) s -= f.lu(ri, c) * x[c];
    x[ri] = s / f.lu(ri, ri);
  }
}

CMat lu_solve(const Lu& f, const CMat& b) {
  // lu_solve_into column by column, in place in x.
  const std::size_t n = f.lu.rows();
  assert(b.rows() == n);
  CMat x(n, b.cols());
  for (std::size_t j = 0; j < b.cols(); ++j) {
    for (std::size_t r = 0; r < n; ++r) {
      cdouble s = b(f.perm[r], j);
      for (std::size_t c = 0; c < r; ++c) s -= f.lu(r, c) * x(c, j);
      x(r, j) = s;
    }
    for (std::size_t ri = n; ri-- > 0;) {
      cdouble s = x(ri, j);
      for (std::size_t c = ri + 1; c < n; ++c) s -= f.lu(ri, c) * x(c, j);
      x(ri, j) = s / f.lu(ri, ri);
    }
  }
  return x;
}

std::optional<CVec> solve(const CMat& a, const CVec& b, double tol) {
  const Lu f = lu_factor(a, tol);
  if (f.singular) return std::nullopt;
  return lu_solve(f, b);
}

bool solve_into(const CMat& a, const CVec& b, Lu& workspace, CVec& x,
                double tol) {
  lu_factor_into(a, workspace, tol);
  if (workspace.singular) return false;
  lu_solve_into(workspace, b, x);
  return true;
}

std::optional<CMat> solve(const CMat& a, const CMat& b, double tol) {
  const Lu f = lu_factor(a, tol);
  if (f.singular) return std::nullopt;
  return lu_solve(f, b);
}

std::optional<CMat> inverse(const CMat& a, double tol) {
  return solve(a, CMat::identity(a.rows()), tol);
}

cdouble determinant(const CMat& a) {
  const Lu f = lu_factor(a);
  if (f.singular) return {0.0, 0.0};
  cdouble d{static_cast<double>(f.sign), 0.0};
  for (std::size_t i = 0; i < a.rows(); ++i) d *= f.lu(i, i);
  return d;
}

namespace {

// Shared Householder QR core. If `pivot` is true, performs column pivoting
// and records the permutation + numerical rank. Q, R and the permutation are
// built in the returned Qr itself (a thin QR trims them at the end).
Qr qr_impl(const CMat& a, bool full, bool pivot, double rel_tol) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const std::size_t t = std::min(m, n);

  Qr out;
  out.r = a;
  out.q.resize_zero(m, m);
  for (std::size_t i = 0; i < m; ++i) out.q(i, i) = cdouble{1.0, 0.0};
  CMat& r = out.r;
  CMat& q = out.q;
  std::vector<std::size_t>& perm = out.col_perm;
  if (pivot) {
    perm.resize(n);
    std::iota(perm.begin(), perm.end(), std::size_t{0});
  }

  std::size_t rank = t;
  bool rank_found = false;
  double first_pivot_mag = 0.0;
  CVec v;  // the current reflector, r(k.., k) shifted by alpha

  for (std::size_t k = 0; k < t; ++k) {
    if (pivot) {
      // Pick the remaining column of largest norm, recomputed exactly each
      // step (n is tiny; avoids the classical downdating instability).
      std::size_t best = k;
      double best_norm = -1.0;
      for (std::size_t c = k; c < n; ++c) {
        double s = 0.0;
        for (std::size_t rr = k; rr < m; ++rr) s += std::norm(r(rr, c));
        if (s > best_norm) {
          best_norm = s;
          best = c;
        }
      }
      if (best != k) {
        for (std::size_t rr = 0; rr < m; ++rr) std::swap(r(rr, best), r(rr, k));
        std::swap(perm[best], perm[k]);
      }
    }

    // Build the Householder reflector annihilating r(k+1..m-1, k).
    const std::size_t len = m - k;
    v.resize(len);
    double xnorm_sq = 0.0;
    for (std::size_t i = 0; i < len; ++i) {
      v[i] = r(k + i, k);
      xnorm_sq += std::norm(v[i]);
    }
    const double xnorm = std::sqrt(xnorm_sq);

    if (!rank_found) {
      if (k == 0) first_pivot_mag = xnorm;
      if (pivot && xnorm <= rel_tol * std::max(first_pivot_mag, 1e-300)) {
        rank = k;
        rank_found = true;
      }
    }

    if (xnorm > 0.0) {
      // alpha = -sign(x0) * |x|, with complex sign x0/|x0| (or 1 if x0 == 0).
      const cdouble x0 = v[0];
      const cdouble sign =
          (std::abs(x0) > 0.0) ? x0 / std::abs(x0) : cdouble{1.0, 0.0};
      const cdouble alpha = -sign * xnorm;
      v[0] -= alpha;
      const double vnorm_sq = v.norm_sq();
      if (vnorm_sq > 0.0) {
        const cdouble tau{2.0 / vnorm_sq, 0.0};
        apply_householder_left(r, v, tau, k, k);
        // Accumulate Q by applying the same reflector to Q^H from the left,
        // i.e. Q <- Q * H^H. Work on q's columns directly:
        for (std::size_t c = 0; c < m; ++c) {
          cdouble s{0.0, 0.0};
          for (std::size_t i = 0; i < len; ++i)
            s += q(c, k + i) * v[i];
          s *= std::conj(tau);
          for (std::size_t i = 0; i < len; ++i)
            q(c, k + i) -= s * std::conj(v[i]);
        }
        // Enforce exact zeros below the diagonal of column k.
        r(k, k) = alpha;
        for (std::size_t i = 1; i < len; ++i) r(k + i, k) = {0.0, 0.0};
      }
    }
  }

  if (!full) {
    q = q.block(0, m, 0, t);
    r = r.block(0, t, 0, n);
  }
  if (pivot) out.rank = rank;
  return out;
}

}  // namespace

Qr qr_full(const CMat& a) { return qr_impl(a, /*full=*/true, false, 0.0); }
Qr qr_thin(const CMat& a) { return qr_impl(a, /*full=*/false, false, 0.0); }
Qr qr_pivoted(const CMat& a, double rel_tol) {
  return qr_impl(a, /*full=*/true, /*pivot=*/true, rel_tol);
}

Svd svd(const CMat& a, int max_sweeps, double tol) {
  // One-sided Jacobi on the columns of a working copy W (m x n, m >= n by
  // operating on A or A^H as needed): rotate column pairs until mutually
  // orthogonal; then s_i = |w_i|, u_i = w_i / s_i, and V accumulates the
  // rotations.
  const bool transposed = a.rows() < a.cols();
  CMat w = transposed ? a.hermitian() : a;
  const std::size_t m = w.rows();
  const std::size_t n = w.cols();
  CMat v = CMat::identity(n);

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        // Compute the 2x2 Gram block for columns p, q.
        cdouble apq{0.0, 0.0};
        double app = 0.0, aqq = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          app += std::norm(w(i, p));
          aqq += std::norm(w(i, q));
          apq += std::conj(w(i, p)) * w(i, q);
        }
        const double apq_mag = std::abs(apq);
        if (apq_mag <= tol * std::sqrt(app * aqq) || apq_mag == 0.0) continue;
        off = std::max(off, apq_mag);

        // Complex Jacobi rotation diagonalizing [[app, apq],[conj(apq), aqq]].
        const cdouble phase = apq / apq_mag;
        const double zeta = (aqq - app) / (2.0 * apq_mag);
        const double t_ = (zeta >= 0.0)
                              ? 1.0 / (zeta + std::sqrt(1.0 + zeta * zeta))
                              : 1.0 / (zeta - std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t_ * t_);
        const cdouble s = phase * (t_ * c);

        for (std::size_t i = 0; i < m; ++i) {
          const cdouble wp = w(i, p);
          const cdouble wq = w(i, q);
          w(i, p) = c * wp - std::conj(s) * wq;
          w(i, q) = s * wp + c * wq;
        }
        for (std::size_t i = 0; i < n; ++i) {
          const cdouble vp = v(i, p);
          const cdouble vq = v(i, q);
          v(i, p) = c * vp - std::conj(s) * vq;
          v(i, q) = s * vp + c * vq;
        }
      }
    }
    if (off == 0.0) break;
  }

  // Extract singular values and left vectors.
  std::vector<double> s(n);
  CMat u(m, n);
  for (std::size_t c = 0; c < n; ++c) {
    CVec col = w.col(c);
    s[c] = col.norm();
    if (s[c] > 0.0) {
      for (std::size_t i = 0; i < m; ++i) u(i, c) = col[i] / s[c];
    } else {
      // Null column: leave u column zero; caller treats s = 0 as rank loss.
    }
  }

  // Sort descending by singular value.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t i, std::size_t j) { return s[i] > s[j]; });
  CMat u_sorted(m, n), v_sorted(v.rows(), n);
  std::vector<double> s_sorted(n);
  for (std::size_t c = 0; c < n; ++c) {
    s_sorted[c] = s[order[c]];
    u_sorted.set_col(c, u.col(order[c]));
    v_sorted.set_col(c, v.col(order[c]));
  }

  Svd out;
  if (transposed) {
    // a = (w)^H = (U S V^H)^H = V S U^H.
    out.u = v_sorted;
    out.v = u_sorted;
  } else {
    out.u = u_sorted;
    out.v = v_sorted;
  }
  out.s = std::move(s_sorted);
  return out;
}

CMat pinv(const CMat& a, double rel_tol) {
  const Svd d = svd(a);
  const double smax = d.s.empty() ? 0.0 : d.s[0];
  const double cut = rel_tol * smax;
  // pinv = V diag(1/s) U^H over significant singular values.
  CMat vs(d.v.rows(), d.v.cols());
  for (std::size_t c = 0; c < d.v.cols(); ++c) {
    const double inv = (d.s[c] > cut && d.s[c] > 0.0) ? 1.0 / d.s[c] : 0.0;
    for (std::size_t r = 0; r < d.v.rows(); ++r)
      vs(r, c) = d.v(r, c) * inv;
  }
  return vs * d.u.hermitian();
}

double cond(const CMat& a) {
  const Svd d = svd(a);
  if (d.s.empty()) return std::numeric_limits<double>::infinity();
  const double smin = d.s.back();
  if (smin <= 0.0) return std::numeric_limits<double>::infinity();
  return d.s.front() / smin;
}

}  // namespace nplus::linalg
