// Gray-coded constellation mapping/demapping for BPSK, QPSK (4-QAM),
// 16-QAM and 64-QAM, normalized to unit average symbol energy as in
// 802.11a (K_mod = 1, 1/sqrt(2), 1/sqrt(10), 1/sqrt(42)).
//
// Demapping offers hard decisions (nearest point) and per-bit max-log LLRs
// for soft Viterbi decoding. LLR convention matches conv_code: positive LLR
// means "bit = 0 more likely".
#pragma once

#include <complex>
#include <vector>

#include "phy/scrambler.h"  // Bits

namespace nplus::phy {

using cdouble = std::complex<double>;

enum class Modulation { kBpsk, kQpsk, kQam16, kQam64 };

// Coded bits carried per subcarrier symbol (N_BPSC).
std::size_t bits_per_symbol(Modulation m);

const char* modulation_name(Modulation m);

// Maps bits (length multiple of bits_per_symbol) to unit-energy symbols.
std::vector<cdouble> map_bits(const Bits& bits, Modulation m);

// Hard demap: nearest constellation point -> bits.
Bits demap_hard(const std::vector<cdouble>& symbols, Modulation m);

// Max-log LLRs given per-symbol noise variance. `noise_var[i]` is the
// post-equalization noise variance of symbol i (a scalar per symbol because
// zero-forcing whitens per subcarrier); pass 1.0 for metric-only use.
// Symbols past the end of `noise_var` reuse its last entry, an empty
// `noise_var` means 1.0, and every variance is floored at 1e-12.
std::vector<double> demap_soft(const std::vector<cdouble>& symbols,
                               const std::vector<double>& noise_var,
                               Modulation m);

// demap_soft with each OFDM symbol's LLRs deinterleaved on the way out, the
// receive path's one pass from symbols to the decoder's input: fills `out`
// with the first out.size() entries of
// deinterleave(demap_soft(symbols, noise_var, m)), where the 802.11a
// deinterleaver (interleaver.h) permutes each block of n_cbps LLRs.
// out.size() must be a multiple of n_cbps, n_cbps one of
// bits_per_symbol(m), and `symbols` must cover out.size() LLRs.
void demap_soft_deinterleaved(const std::vector<cdouble>& symbols,
                              const std::vector<double>& noise_var,
                              Modulation m, std::size_t n_cbps,
                              std::vector<double>& out);

// Uncoded bit-error probability of modulation `m` at the given per-symbol
// SNR (linear). Standard Gray-coded AWGN approximations; this is the kernel
// of the effective-SNR (Halperin et al. [16]) bitrate metric in esnr.h.
double ber_awgn(Modulation m, double snr_linear);

// All constellation points in mapping order (index = Gray-coded bit word).
const std::vector<cdouble>& constellation_points(Modulation m);

}  // namespace nplus::phy
