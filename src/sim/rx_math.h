// Receiver-side math for the packet-level plane: advertised unwanted
// spaces (what a receiver's light-weight CTS broadcasts) and post-projection
// zero-forcing SINR.
//
// A receiver with N antennas that wants n streams has an (N - n)-dimensional
// unwanted space (Table 1 of the paper). It must contain everything the
// receiver intends to ignore: the span of the interference it already sees.
// When the existing interference spans fewer than N - n dimensions the
// receiver tops the space up with directions orthogonal to its wanted
// channels — advertising the largest possible unwanted space minimizes the
// constraints future joiners must satisfy (keeping Claim 3.2's m = M - K
// count exact).
#pragma once

#include <vector>

#include "linalg/mat.h"
#include "phy/link_abstraction.h"

namespace nplus::sim {

using linalg::CMat;

// Builds the advertised unwanted space U (N x (N-n), orthonormal columns)
// from the receiver's *estimates* of its wanted effective channels
// `g_est` (N x j_w columns spanning where the wanted signal can arrive —
// typically the effective RTS-preamble channels) and of the present
// interference `f_est` (N x j, possibly zero columns). `n_wanted` is the
// stream count n the receiver will decode; 0 means use g_est.cols().
CMat advertised_unwanted_space(const CMat& g_est, const CMat& f_est,
                               std::size_t n_wanted = 0);

// The receiver's MMSE-regularized zero-forcing combiner for one (link,
// subcarrier): C = (A^H A + noise_power I)^-1 A^H W^H with A = W^H g_est
// (n x N). It depends only on receive_space W, g_est and noise_power, which
// are all fixed once a link has joined, so a receiver solves it once per
// round and every later evaluation of the same link reads it back.
struct ZfSolve {
  bool solved = false;    // filled by the first evaluation that used it
  bool singular = false;  // the regularized Gram did not invert: zeros
  CMat combiner;          // n x N when solved and not singular
};

// Observation model at one receiver on one subcarrier.
struct RxObservation {
  CMat g_true;  // true effective channels of the wanted streams (N x n)
  CMat g_est;   // the receiver's estimate of the same (N x n)
  // True effective channels of everything else on the air (N x j); the
  // receiver does NOT know these exactly — it only relies on its advertised
  // unwanted space to reject them, so imperfect alignment/nulling leaks
  // through here. Residual error becomes measurable SINR loss.
  CMat interference_true;
  // Interference-free receive directions W = orthogonal_complement(U) of
  // the advertised unwanted space U (N x (N - dim U), orthonormal). The
  // round builder computes it once per advertising link and subcarrier.
  CMat receive_space;
  double noise_power = 0.0;
  // Solve slot of this (link, subcarrier), or nullptr to solve locally.
  // zf_stream_sinr/zf_stream_rx_models fill an empty slot and reuse a full
  // one. A slot may only be shared by observations with the same
  // receive_space, g_est and noise_power (and so the same stream count);
  // g_true and interference_true are free to differ between them.
  ZfSolve* solve = nullptr;
};

// Post-projection zero-forcing SINR of each wanted stream: the receiver
// projects onto `receive_space`, inverts the estimated effective channel,
// and eats whatever self-distortion, residual interference, and enhanced
// noise remain. The summary the packet simulator's hottest loop reads
// (every subcarrier of every join attempt): no per-stream gain vectors.
std::vector<double> zf_stream_sinr(const RxObservation& obs);

// One phy::StreamRxModel per wanted stream — the post-combining symbol
// observation model the full-PHY scorer realizes term by term (see
// phy/link_abstraction.h). Zero gain / zero sinr when the projected space
// cannot support the streams, mirroring zf_stream_sinr's zeros.
using phy::StreamRxModel;
std::vector<StreamRxModel> zf_stream_rx_models(const RxObservation& obs);

}  // namespace nplus::sim
