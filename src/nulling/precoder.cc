#include "nulling/precoder.h"

#include <cassert>

#include "linalg/decomp.h"
#include "linalg/simd/batch.h"
#include "linalg/simd/kernels.h"
#include "linalg/subspace.h"

namespace nplus::nulling {

OngoingReceiver make_null_constraint(const CMat& channel) {
  return OngoingReceiver{channel, CMat::identity(channel.rows())};
}

OngoingReceiver make_align_constraint(const CMat& channel,
                                      const CMat& wanted_space) {
  assert(wanted_space.cols() == channel.rows());
  return OngoingReceiver{channel, wanted_space};
}

std::size_t max_join_streams(std::size_t n_antennas,
                             std::size_t ongoing_streams) {
  return n_antennas > ongoing_streams ? n_antennas - ongoing_streams : 0;
}

namespace {

// Writes every receiver's constraint rows U^perp_j H_j into `stacked`
// starting at row `at`; returns the row index past the last one written.
// `stacked` must already be sized; no per-receiver temporaries survive the
// call (`rows` is a reused workspace for the product).
std::size_t stack_constraints_at(CMat& stacked, std::size_t at,
                                 const std::vector<OngoingReceiver>& ongoing) {
  const std::size_t n_antennas = stacked.cols();
  CMat rows;
  for (const auto& rx : ongoing) {
    assert(rx.channel.cols() == n_antennas);
    linalg::mul_into(rx.wanted_space, rx.channel, rows);  // n_j x M
    for (std::size_t r = 0; r < rows.rows(); ++r) {
      for (std::size_t c = 0; c < n_antennas; ++c) {
        stacked(at + r, c) = rows(r, c);
      }
    }
    at += rows.rows();
  }
  return at;
}

// Stacks every receiver's constraint rows into a fresh (sum n_j) x M
// matrix, sized once up front instead of repeated vstack reallocation.
CMat stack_constraints(std::size_t n_antennas,
                       const std::vector<OngoingReceiver>& ongoing) {
  std::size_t total_rows = 0;
  for (const auto& rx : ongoing) total_rows += rx.constraint_rows();
  CMat stacked(total_rows, n_antennas);
  stack_constraints_at(stacked, 0, ongoing);
  return stacked;
}

// Normalizes each column of v to unit norm; returns false if any column is
// numerically zero (degenerate solution).
bool normalize_columns(CMat& v) {
  for (std::size_t c = 0; c < v.cols(); ++c) {
    const double n = v.col(c).norm();
    if (n < 1e-12) return false;
    for (std::size_t r = 0; r < v.rows(); ++r) {
      v(r, c) /= n;
    }
  }
  return true;
}

// Shared tail of compute_join_precoder / compute_join_precoders_batch:
// null-space extraction, degree-of-freedom checks, and normalization from
// an already-stacked constraint matrix. The pivoted QR inside null_space is
// data-dependent control flow, so this part is scalar in both entry points.
std::optional<PrecoderResult> finish_join_precoder(const CMat& constraints,
                                                   std::size_t n_antennas,
                                                   std::size_t n_streams) {
  assert(constraints.rows() <= n_antennas);

  // Null-space basis: every column satisfies all nulling/alignment rows.
  const CMat ns = linalg::null_space(constraints);
  if (ns.cols() < n_streams) {
    // Constraint matrix was rank-deficient in an unlucky way or the caller
    // asked for more streams than degrees of freedom permit.
    if (constraints.rows() + n_streams > n_antennas) return std::nullopt;
    // Rank deficiency *helps* (more free dimensions), fall through.
  }
  if (ns.cols() == 0 || n_streams == 0) return std::nullopt;

  PrecoderResult result;
  result.v = ns.block(0, ns.rows(), 0, std::min(n_streams, ns.cols()));
  if (result.v.cols() < n_streams) return std::nullopt;
  if (!normalize_columns(result.v)) return std::nullopt;
  return result;
}

// Whether every lane presents the same receiver count and the same
// per-receiver constraint shapes as lane 0 (the batched matmul needs one
// shape per receiver slot across all lanes).
bool uniform_lane_shapes(
    const std::vector<std::vector<OngoingReceiver>>& lanes) {
  const auto& first = lanes.front();
  for (const auto& lane : lanes) {
    if (lane.size() != first.size()) return false;
    for (std::size_t j = 0; j < lane.size(); ++j) {
      if (lane[j].wanted_space.rows() != first[j].wanted_space.rows() ||
          lane[j].wanted_space.cols() != first[j].wanted_space.cols() ||
          lane[j].channel.rows() != first[j].channel.rows() ||
          lane[j].channel.cols() != first[j].channel.cols()) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

std::optional<PrecoderResult> compute_join_precoder(
    std::size_t n_antennas, const std::vector<OngoingReceiver>& ongoing,
    std::size_t n_streams) {
  return finish_join_precoder(stack_constraints(n_antennas, ongoing),
                              n_antennas, n_streams);
}

std::vector<std::optional<PrecoderResult>> compute_join_precoders_batch(
    std::size_t n_antennas,
    const std::vector<std::vector<OngoingReceiver>>& ongoing_per_lane,
    std::size_t n_streams) {
  const std::size_t n_lanes = ongoing_per_lane.size();
  std::vector<std::optional<PrecoderResult>> out(n_lanes);
  if (n_lanes == 0) return out;

  if (!uniform_lane_shapes(ongoing_per_lane)) {
    // Mixed constraint shapes across subcarriers (e.g. mid-sweep topology
    // change): no common batch shape exists, fall back lane by lane.
    for (std::size_t s = 0; s < n_lanes; ++s) {
      out[s] = compute_join_precoder(n_antennas, ongoing_per_lane[s],
                                     n_streams);
    }
    return out;
  }

  // One batched U^perp_j H_j product per receiver slot (the whole scalar
  // stack_constraints matmul work), then the scalar finish per lane.
  const std::size_t n_rx = ongoing_per_lane.front().size();
  std::size_t total_rows = 0;
  for (const auto& rx : ongoing_per_lane.front()) {
    total_rows += rx.constraint_rows();
  }

  std::vector<CMat> stacked(n_lanes, CMat(total_rows, n_antennas));
  linalg::simd::CBatch wanted, channel, rows;
  std::size_t at = 0;
  for (std::size_t j = 0; j < n_rx; ++j) {
    const auto& rx0 = ongoing_per_lane.front()[j];
    assert(rx0.channel.cols() == n_antennas);
    wanted.resize(rx0.wanted_space.rows(), rx0.wanted_space.cols(), n_lanes);
    channel.resize(rx0.channel.rows(), rx0.channel.cols(), n_lanes);
    for (std::size_t s = 0; s < n_lanes; ++s) {
      wanted.set_lane(s, ongoing_per_lane[s][j].wanted_space);
      channel.set_lane(s, ongoing_per_lane[s][j].channel);
    }
    linalg::simd::matmul(wanted, channel, rows);  // n_j x M x L
    for (std::size_t s = 0; s < n_lanes; ++s) {
      for (std::size_t r = 0; r < rows.rows(); ++r) {
        for (std::size_t c = 0; c < n_antennas; ++c) {
          stacked[s](at + r, c) = rows.get(r, c, s);
        }
      }
    }
    at += rows.rows();
  }
  assert(at == total_rows);

  for (std::size_t s = 0; s < n_lanes; ++s) {
    out[s] = finish_join_precoder(stacked[s], n_antennas, n_streams);
  }
  return out;
}

std::optional<PrecoderResult> compute_multi_rx_precoder(
    std::size_t n_antennas, const std::vector<OngoingReceiver>& ongoing,
    const std::vector<OwnReceiver>& own) {
  // Count stream totals and validate Eq. 7's squareness: ongoing rows K plus
  // own rows m must equal M.
  std::size_t k_rows = 0;
  for (const auto& rx : ongoing) k_rows += rx.constraint_rows();
  std::size_t m_streams = 0;
  for (const auto& rx : own) {
    assert(rx.stream_ids.size() == rx.wanted_space.rows());
    m_streams += rx.stream_ids.size();
  }
  // Eq. 7 is stated for the square case (K + m == M). When the transmitter
  // holds antennas in reserve (K + m < M) the system is underdetermined and
  // the minimum-norm solution (via pseudo-inverse) spends the least transmit
  // power while meeting every constraint.
  if (k_rows + m_streams > n_antennas || m_streams == 0) return std::nullopt;

  // System matrix A (M x M): ongoing constraint rows on top, own-receiver
  // rows below; right-hand side: zeros on top, stream-routing identity
  // below (Eq. 7). Both are sized once up front instead of growing through
  // repeated vstack copies.
  std::size_t own_rows = 0;
  for (const auto& rx : own) own_rows += rx.wanted_space.rows();
  CMat a(k_rows + own_rows, n_antennas);
  CMat rhs(k_rows + own_rows, m_streams);
  CMat rows;
  std::size_t at = stack_constraints_at(a, 0, ongoing);
  assert(at == k_rows);
  for (const auto& rx : own) {
    assert(rx.channel.cols() == n_antennas);
    linalg::mul_into(rx.wanted_space, rx.channel, rows);  // n' x M
    for (std::size_t r = 0; r < rows.rows(); ++r) {
      for (std::size_t c = 0; c < n_antennas; ++c) {
        a(at + r, c) = rows(r, c);
      }
    }
    for (std::size_t r = 0; r < rx.stream_ids.size(); ++r) {
      assert(rx.stream_ids[r] < m_streams);
      rhs(at + r, rx.stream_ids[r]) = linalg::cdouble{1.0, 0.0};
    }
    at += rows.rows();
  }
  assert(a.cols() == n_antennas);

  PrecoderResult result;
  if (a.rows() == a.cols()) {
    const auto v = linalg::solve(a, rhs);
    if (!v.has_value()) return std::nullopt;
    result.v = *v;
  } else {
    result.v = linalg::pinv(a) * rhs;
  }
  if (!normalize_columns(result.v)) return std::nullopt;
  return result;
}

double residual_interference(const OngoingReceiver& rx, const CVec& v) {
  // Power that lands inside the receiver's wanted space.
  const CVec leak = rx.wanted_space * (rx.channel * v);
  return leak.norm_sq();
}

}  // namespace nplus::nulling
