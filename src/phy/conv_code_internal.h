// Internal seams of conv_code.cc, for tests: the depuncturer, and each
// build of the Viterbi trellis.
//
// One source body of the trellis pass is compiled three times: a 2-lane
// build for the baseline ISA and, on x86-64, a 4-lane AVX2 build and an
// 8-lane AVX-512F build. viterbi_decode_soft picks the widest build the CPU
// runs (AVX-512F, then AVX2, then baseline), once per process. Every build
// decodes bit-identically; tests diff each build this host can execute
// against the reference decoder through these calls.
#pragma once

#include <cstddef>
#include <vector>

#include "phy/conv_code.h"

namespace nplus::phy::detail {

// Writes steps [first, first + n_steps) of the full-rate stream the
// trellis reads to out[0 .. 2*n_steps): `llr` in order at the transmitted
// positions of `rate`'s puncture pattern, and 0 (an erasure) at punctured
// positions and at transmitted positions past the end of `llr`.
void depuncture(const std::vector<double>& llr, std::size_t first,
                std::size_t n_steps, CodeRate rate, double* out);

enum class TrellisBuild { kBaseline, kAvx2, kAvx512 };

const char* trellis_build_name(TrellisBuild build);

// Whether this process can execute `build`: kBaseline always, kAvx2 only on
// an x86-64 CPU that reports AVX2, kAvx512 only on one that reports
// AVX-512F (which the OS must also have enabled: __builtin_cpu_supports
// checks both).
bool trellis_build_runs_here(TrellisBuild build);

// viterbi_decode_soft through `build`. Throws std::invalid_argument if the
// build cannot run here.
Bits viterbi_decode_soft_with(TrellisBuild build,
                              const std::vector<double>& llr,
                              std::size_t n_out, CodeRate rate);

}  // namespace nplus::phy::detail
