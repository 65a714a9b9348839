// Structure-of-arrays complex batches for lane-parallel subcarrier math.
//
// The PHY's hot loops repeat the same tiny dense-algebra op (a 2x3 matvec,
// a 4x2 matmul, a constellation distance) once per OFDM subcarrier with
// different data but identical shape. A CBatch stores L such operands
// side by side in split real/imaginary double planes, innermost index =
// lane, so one vector instruction advances every lane's scalar op at once:
//
//   element (r, c) of lane l lives at  plane[(r * cols + c) * lanes + l]
//
// The byte-identity contract: a batch kernel must execute, per lane, the
// exact IEEE-754 op sequence of its scalar reference in linalg/mat.cc —
// same products, same association, no FMA contraction (the kernel TU,
// linalg/simd/kernels.cc, is compiled with -ffp-contract=off), no
// cross-lane reductions. Lanes are fully independent, so whatever the
// compiler vectorizes (per-lane IEEE add/mul/sub) reproduces the scalar
// path bit for bit; tests/test_simd_kernels.cc enforces this with memcmp
// against the linalg/mat.cc references.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "linalg/mat.h"

namespace nplus::linalg::simd {

class CBatch {
 public:
  CBatch() = default;
  CBatch(std::size_t rows, std::size_t cols, std::size_t lanes) {
    resize(rows, cols, lanes);
  }

  // Reshapes without preserving contents; reuses vector capacity, so a
  // warmed-up workspace never reallocates (the zero-alloc suite relies on
  // this for the LTF estimator's thread-local batches).
  void resize(std::size_t rows, std::size_t cols, std::size_t lanes) {
    rows_ = rows;
    cols_ = cols;
    lanes_ = lanes;
    re_.resize(rows * cols * lanes);
    im_.resize(rows * cols * lanes);
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t lanes() const { return lanes_; }
  std::size_t size() const { return re_.size(); }

  double* re() { return re_.data(); }
  double* im() { return im_.data(); }
  const double* re() const { return re_.data(); }
  const double* im() const { return im_.data(); }

  std::size_t idx(std::size_t r, std::size_t c, std::size_t lane) const {
    return (r * cols_ + c) * lanes_ + lane;
  }

  cdouble get(std::size_t r, std::size_t c, std::size_t lane) const {
    const std::size_t i = idx(r, c, lane);
    return {re_[i], im_[i]};
  }
  void set(std::size_t r, std::size_t c, std::size_t lane, cdouble v) {
    const std::size_t i = idx(r, c, lane);
    re_[i] = v.real();
    im_[i] = v.imag();
  }

  // AoS <-> SoA transposes for one lane. The pack/unpack cost is the price
  // of lane parallelism; callers amortize it by packing once per frame (or
  // per symbol) and running many kernel calls against the packed batch.
  void set_lane(std::size_t lane, const CMat& m) {
    assert(m.rows() == rows_ && m.cols() == cols_ && lane < lanes_);
    for (std::size_t r = 0; r < rows_; ++r) {
      for (std::size_t c = 0; c < cols_; ++c) {
        set(r, c, lane, m(r, c));
      }
    }
  }
  void get_lane(std::size_t lane, CMat& m) const {
    assert(lane < lanes_);
    m.resize(rows_, cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
      for (std::size_t c = 0; c < cols_; ++c) {
        m(r, c) = get(r, c, lane);
      }
    }
  }
  void set_lane(std::size_t lane, const CVec& v) {
    assert(v.size() == rows_ && cols_ == 1 && lane < lanes_);
    for (std::size_t r = 0; r < rows_; ++r) set(r, 0, lane, v[r]);
  }
  void get_lane(std::size_t lane, CVec& v) const {
    assert(cols_ == 1 && lane < lanes_);
    v.resize(rows_);
    for (std::size_t r = 0; r < rows_; ++r) v[r] = get(r, 0, lane);
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t lanes_ = 0;
  std::vector<double> re_;
  std::vector<double> im_;
};

}  // namespace nplus::linalg::simd
