#include "sim/rx_math.h"

#include <cassert>

#include "linalg/decomp.h"
#include "linalg/subspace.h"

namespace nplus::sim {

using linalg::cdouble;

CMat advertised_unwanted_space(const CMat& g_est, const CMat& f_est,
                               std::size_t n_wanted) {
  const std::size_t n_ant = g_est.rows();
  if (n_wanted == 0) n_wanted = g_est.cols();
  assert(n_wanted <= n_ant);
  const std::size_t target_dim = n_ant - n_wanted;

  // Start from the interference span.
  CMat base = linalg::orthonormal_basis(f_est);
  if (base.cols() > target_dim) {
    // More interference directions than unwanted dimensions: the receiver
    // is overloaded; keep the strongest directions (basis is ordered by
    // pivoted-QR column magnitude).
    base = base.block(0, base.rows(), 0, target_dim);
  }
  if (base.cols() == target_dim) return base;

  // Top up with directions orthogonal to both the interference and the
  // wanted channels.
  const CMat combined = base.hstack(g_est);
  const CMat extra = linalg::orthogonal_complement(combined);
  std::size_t need = target_dim - base.cols();
  if (extra.cols() < need) {
    // Wanted + interference span too much of the space to avoid both; take
    // what orthogonal directions exist and fill the rest from the
    // complement of the interference alone (encroaching on the wanted span
    // is the receiver's least-bad option).
    CMat u = base.hstack(extra);
    const CMat fallback = linalg::orthogonal_complement(u);
    const std::size_t more =
        std::min(target_dim - u.cols(), fallback.cols());
    return u.hstack(fallback.block(0, fallback.rows(), 0, more));
  }
  return base.hstack(extra.block(0, extra.rows(), 0, need));
}

namespace {

// The combiner of `obs` (see ZfSolve), read from obs.solve when that slot is
// already filled and solved into it (or into `local` when obs.solve is
// nullptr) otherwise. nullptr when the projected space cannot support the
// streams or the regularized Gram is singular: the callers report zeros.
//
// MMSE-regularized inversion of the estimated effective channel inside the
// projected space: at high SNR this is the paper's zero-forcing; at low SNR
// it avoids the catastrophic noise enhancement of a near-singular inverse,
// matching how practical 802.11n receivers behave.
const CMat* zf_combiner(const RxObservation& obs, ZfSolve& local) {
  const CMat& w = obs.receive_space;
  if (w.cols() < obs.g_true.cols()) return nullptr;
  ZfSolve& slot = obs.solve != nullptr ? *obs.solve : local;
  if (!slot.solved) {
    slot.solved = true;
    const CMat wh = w.hermitian();
    const CMat a = wh * obs.g_est;  // d x n (estimated)
    CMat reg = a.hermitian() * a;   // n x n
    for (std::size_t i = 0; i < reg.rows(); ++i) {
      reg(i, i) += cdouble{obs.noise_power, 0.0};
    }
    const auto reg_inv = linalg::inverse(reg);
    slot.singular = !reg_inv.has_value();
    if (!slot.singular) {
      slot.combiner = (*reg_inv) * a.hermitian() * wh;  // n x N
    }
  }
  return slot.singular ? nullptr : &slot.combiner;
}

}  // namespace

std::vector<StreamRxModel> zf_stream_rx_models(const RxObservation& obs) {
  const std::size_t n = obs.g_true.cols();
  std::vector<StreamRxModel> models(n);

  ZfSolve local;
  const CMat* combiner = zf_combiner(obs, local);
  if (combiner == nullptr) return models;

  const CMat own = *combiner * obs.g_true;  // ~identity under perfect est.
  CMat leak;
  if (obs.interference_true.cols() > 0) {
    leak = *combiner * obs.interference_true;  // n x j residual interference
  }

  for (std::size_t s = 0; s < n; ++s) {
    StreamRxModel& m = models[s];
    m.gain = own(s, s);
    const double sig = std::norm(m.gain);
    double err = 0.0;
    m.self.reserve(n > 0 ? n - 1 : 0);
    for (std::size_t t = 0; t < n; ++t) {
      if (t == s) continue;
      m.self.push_back(own(s, t));
      err += std::norm(own(s, t));
    }
    m.leak.reserve(leak.cols());
    for (std::size_t c = 0; c < leak.cols(); ++c) {
      m.leak.push_back(leak(s, c));
      err += std::norm(leak(s, c));
    }
    m.noise_var = combiner->row(s).norm_sq() * obs.noise_power;
    err += m.noise_var;
    m.sinr = err > 0.0 ? sig / err : 1e12;
  }
  return models;
}

std::vector<double> zf_stream_sinr(const RxObservation& obs) {
  const std::size_t n = obs.g_true.cols();
  std::vector<double> sinr(n, 0.0);

  ZfSolve local;
  const CMat* combiner = zf_combiner(obs, local);
  if (combiner == nullptr) return sinr;

  const CMat own = *combiner * obs.g_true;  // ~identity under perfect est.
  CMat leak;
  if (obs.interference_true.cols() > 0) {
    leak = *combiner * obs.interference_true;  // n x j residual interference
  }

  for (std::size_t s = 0; s < n; ++s) {
    const double sig = std::norm(own(s, s));
    double err = 0.0;
    for (std::size_t t = 0; t < n; ++t) {
      if (t != s) err += std::norm(own(s, t));
    }
    for (std::size_t c = 0; c < leak.cols(); ++c) {
      err += std::norm(leak(s, c));
    }
    err += combiner->row(s).norm_sq() * obs.noise_power;
    sinr[s] = err > 0.0 ? sig / err : 1e12;
  }
  return sinr;
}

}  // namespace nplus::sim
