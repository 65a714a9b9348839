// 802.11 convolutional code: rate-1/2 mother code, constraint length K = 7,
// generators g0 = 133o, g1 = 171o, with the standard puncturing patterns for
// rates 2/3 and 3/4. Decoding is Viterbi, supporting both hard-decision
// (Hamming metric) and soft-decision (LLR correlation metric) inputs;
// punctured positions contribute zero metric.
//
// The decoder runs the 64-state trellis as 32 butterflies per step.
// Butterfly k reads states 2k and 2k+1 and writes state k (input 0) and
// state k+32 (input 1). Both generators tap the input bit and the oldest
// register bit, so the four edges share one branch metric b = +-la +- lb:
// e+b and o-b into k, e-b and o+b into k+32. Negation is exact in IEEE
// arithmetic, so these are the same sums a per-edge metric table gives.
// Each target keeps its even candidate unless that is -inf or NaN, and
// takes the odd one only if it is strictly greater. This keeps the
// tie-break (ties go to the lower predecessor) and the non-finite rules
// (an unreached predecessor never wins, a NaN metric is never kept) of a
// state-by-state push over the trellis, so decoded bits match it exactly.
// Survivors are one 64-bit mask per step, bit n set iff state n came from
// its odd predecessor; traceback reads the input bit as the state's top
// bit. The butterflies of a step run as vector lanes, in a build picked
// once per process for the CPU (phy/conv_code_internal.h); every build
// decodes the same bits.
#pragma once

#include <cstdint>
#include <vector>

#include "phy/scrambler.h"  // for Bits

namespace nplus::phy {

enum class CodeRate { kRate1_2, kRate2_3, kRate3_4 };

// Numerator / denominator of the code rate.
int code_rate_num(CodeRate r);
int code_rate_den(CodeRate r);
double code_rate_value(CodeRate r);

// Encodes `data` (the encoder is flushed with K-1 = 6 tail zeros, which the
// caller must include in `data` if it wants proper trellis termination —
// frame.cc handles that). Output: coded bits after puncturing.
Bits conv_encode(const Bits& data, CodeRate rate);

// conv_encode one block at a time: each encode() continues the shift
// register and the puncture phase where the previous call stopped, so a
// stream encoded in pieces gives conv_encode's output for the whole.
class ConvEncoder {
 public:
  explicit ConvEncoder(CodeRate rate) : rate_(rate) {}

  // Encodes data[0 .. n) (one bit per byte) into `out`; returns the number
  // of coded bits written.
  std::size_t encode(const std::uint8_t* data, std::size_t n,
                     std::uint8_t* out);

 private:
  CodeRate rate_;
  unsigned state_ = 0;
  std::size_t phase_ = 0;
};

// Number of coded bits produced for n_in input bits at `rate`.
std::size_t coded_length(std::size_t n_in, CodeRate rate);

// Hard-decision Viterbi decode of `coded` back to n_out data bits.
Bits viterbi_decode(const Bits& coded, std::size_t n_out, CodeRate rate);

// Soft-decision Viterbi decode. `llr[i]` > 0 means bit i is more likely 0;
// the magnitude is the confidence. Punctured positions are reinserted
// internally as zero-confidence values.
Bits viterbi_decode_soft(const std::vector<double>& llr, std::size_t n_out,
                         CodeRate rate);

}  // namespace nplus::phy
