// Batched kernels over the SoA layout of linalg/simd/batch.h.
//
// Each kernel runs, on every lane, the per-lane op sequence of its scalar
// reference in linalg/mat.cc (cited below), so its output is byte-identical
// to calling that reference lane by lane. All five are plain lane loops in
// one TU (kernels.cc) compiled with -ffp-contract=off. Shapes must match
// across operands; `out` is reshaped (capacity-reusing) and must not alias
// an input.
#pragma once

#include <cstddef>

#include "linalg/mat.h"
#include "linalg/simd/batch.h"

namespace nplus::linalg::simd {

// Per lane: out = a * x, exactly linalg::mul_into(CMat, CVec, CVec&).
// a: m x n x L, x: n x 1 x L, out: m x 1 x L.
void matvec(const CBatch& a, const CBatch& x, CBatch& out);

// Per lane: out = a * b, exactly linalg::mul_into(CMat, CMat, CMat&)
// (ikj order, k = 0 pass assigns). a: m x n x L, b: n x p x L.
void matmul(const CBatch& a, const CBatch& b, CBatch& out);

// Per lane, elementwise: v = v * s with the naive complex product —
// exactly CMat::operator*=(cdouble) / the decode path's `s_hat * phase_fix`
// (both reduce to the same two products per component; IEEE add/mul are
// commutative, so one formula reproduces either operand order).
void scale(CBatch& m, cdouble s);

// Elementwise out = 0.5 * (a + b) — the LTF two-symbol average.
void halfsum(const CBatch& a, const CBatch& b, CBatch& out);

// Squared distances from each lane's point (yr[l], yi[l]) to every
// constellation point: d[w * lanes + l] = norm(y_l - pts[w]) with
// std::norm's re*re + im*im. `d` must hold n_pts * lanes doubles.
void point_distances(const double* yr, const double* yi, std::size_t lanes,
                     const cdouble* pts, std::size_t n_pts, double* d);

}  // namespace nplus::linalg::simd
