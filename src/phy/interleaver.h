// 802.11a block interleaver.
//
// Operates on one OFDM symbol's worth of coded bits (N_CBPS). Two
// permutations: the first spreads adjacent coded bits across nonadjacent
// subcarriers; the second alternates them across constellation bit
// significance so long runs of low-reliability bits are broken up.
#pragma once

#include <cstddef>
#include <vector>

namespace nplus::phy {

// Permutation for one symbol: returns `to[i] = j`, meaning input bit i goes
// to output position j. n_cbps = coded bits per symbol, n_bpsc = coded bits
// per subcarrier (1 BPSK, 2 QPSK, 4 16-QAM, 6 64-QAM).
std::vector<std::size_t> interleave_map(std::size_t n_cbps,
                                        std::size_t n_bpsc);

// The inverse of interleave_map(n_cbps, n_bpsc): `from[j] = i`, meaning
// output position j holds input bit i. Both directions of the stream walk
// it: interleaving reads coded bit from[j] into slot j, deinterleaving
// writes received LLR j to slot from[j]. Built once per thread and config;
// the reference stays valid for the thread's life.
const std::vector<std::size_t>& deinterleave_map(std::size_t n_cbps,
                                                 std::size_t n_bpsc);

}  // namespace nplus::phy
