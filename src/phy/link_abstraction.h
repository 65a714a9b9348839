// Dual-fidelity link models: the calibrated eSNR -> PER fast path and the
// full-codec-chain reference scorer it abstracts.
//
// The packet-level simulator decides *what* is transmitted (winners,
// precoders, bitrates) from post-projection effective SNRs; the only place
// fidelity levels differ is how a transmission's delivery is scored:
//
//   * kAbstracted (LinkAbstraction): the stream's effective SNR is mapped
//     through a per-MCS PER curve calibrated offline by driving the real
//     sample-level transceiver chain across an SNR sweep (bench/
//     calibrate_per.cc); the checked-in result lives in per_table_data.inc.
//     Delivery is scored in expectation (bits * (1 - PER)) — the
//     variance-reduced fast path that makes 500-pair worlds affordable.
//
//   * kFullPhy (simulate_stream_delivery_mimo): the stream's payload is
//     actually encoded (scramble -> convolutional code -> interleave ->
//     constellation map), pushed through each subcarrier's post-combining
//     observation model (wanted gain, sibling-stream crosstalk, residual
//     interference, Gaussian noise), and received (soft demap -> Viterbi
//     -> CRC). Delivery is the CRC verdict of that one realization.
//
// Both are keyed on the same quantity — post-equalization effective SNR —
// so the abstraction is validated against the reference by running whole
// scenarios in both modes (tests/test_fidelity.cc).
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <vector>

#include "phy/mcs.h"
#include "util/rng.h"

namespace nplus::phy {

// One calibration sample: PER of a 1500-byte frame at this effective SNR.
struct PerPoint {
  double esnr_db = 0.0;
  double per = 0.0;
};

// A calibrated curve for one MCS, sorted by ascending eSNR with PER
// non-increasing (the calibration tool enforces monotonicity before
// writing; the loader re-asserts it).
struct PerCurve {
  int mcs_index = -1;
  std::vector<PerPoint> points;
};

class LinkAbstraction {
 public:
  // Empty table: every MCS falls back to the analytic logistic model
  // (phy::packet_error_rate).
  LinkAbstraction() = default;

  // Builds from explicit curves (tests, regenerated calibrations). Points
  // are sorted by eSNR and PERs clamped into [0, 1]; a curve with fewer
  // than two points is ignored (analytic fallback for that MCS).
  explicit LinkAbstraction(const std::vector<PerCurve>& curves);

  // The checked-in calibration (src/phy/per_table_data.inc), built once.
  static const LinkAbstraction& calibrated();

  // PER of a `bytes`-long frame at the given post-equalization effective
  // SNR: linear interpolation on the curve (clamped at the grid ends),
  // then length scaling PER(L) = 1 - (1 - PER_1500)^(L/1500). MCS without
  // a curve use the analytic model.
  double per(const Mcs& mcs, double esnr_db, std::size_t bytes) const;

  // The raw 1500-byte curve lookup (no length scaling).
  double per_1500(const Mcs& mcs, double esnr_db) const;

  bool has_curve(int mcs_index) const;
  const PerCurve* curve(int mcs_index) const;  // nullptr if absent

 private:
  std::array<std::optional<PerCurve>, 16> curves_{};
};

// --- Full-PHY reference scorer ------------------------------------------

// Largest payload (bytes) whose encoded frame fits in `n_symbols` OFDM
// symbols at `mcs` (16 service + 6 tail bits and the 4-byte CRC-32 are
// carried inside the symbol budget). 0 when even an empty payload's
// service/CRC/tail overhead does not fit.
std::size_t payload_bytes_for_symbols(std::size_t n_symbols, const Mcs& mcs);

// Post-combining observation model of one wanted stream on one subcarrier.
// After the receiver's interference projection + MMSE-ZF combiner, the
// stream's decision variable is
//
//   y = gain * x + sum_t self[t] * x_sibling_t
//               + sum_c leak[c] * i_c + CN(0, noise_var),
//
// with x the wanted constellation symbol, x_sibling the same link's other
// streams, and i_c the symbols of residual (imperfectly nulled/aligned)
// interference columns. `sinr` is the Gaussian summary the eSNR
// abstraction keys on; the full-PHY scorer realizes the terms instead.
// sim::zf_stream_rx_models builds these from a receiver observation.
struct StreamRxModel {
  cdouble gain{0.0, 0.0};
  std::vector<cdouble> self;  // crosstalk gains from sibling streams
  std::vector<cdouble> leak;  // residual interference gains
  double noise_var = 0.0;     // post-combining Gaussian noise power
  double sinr = 0.0;
};

// Symbol-level full-PHY delivery of one coded stream: encodes a random
// payload at `mcs`, then per symbol realizes the observation model of its
// subcarrier (sc_models[i % sc_models.size()]) — actual sibling symbols
// drawn from the link's own constellation, residual interference symbols
// drawn as unit-power QPSK (constant-modulus proxy: the scoring layer does
// not know each interferer's modulation), Gaussian noise at the combiner's
// output power — equalizes by the wanted gain, and runs soft demap ->
// Viterbi -> CRC-32. The demapper is given the receiver's SINR *belief*
// (1/sinr), exactly what a practical receiver estimates. Returns true iff
// the CRC verifies; a zero wanted gain (undecodable stream) fails.
bool simulate_stream_delivery_mimo(
    std::size_t payload_bytes, const Mcs& mcs,
    const std::vector<StreamRxModel>& sc_models, util::Rng& rng);

}  // namespace nplus::phy
