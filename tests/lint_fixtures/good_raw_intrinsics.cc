// LINT-PATH: src/phy/fixture_raw_intrinsics_ok.cc
// Clean twin: idioms that look close to an intrinsic but are fine, plus the
// suppression escape hatch for a deliberate, justified exception.
#include "linalg/simd/kernels.h"

namespace nplus::phy {

// Mentioning _mm256_add_pd or vaddq_f64 in a comment is not a finding; the
// linter only scans code, and docs should be free to name the kernels.

// Identifiers that merely resemble intrinsic spellings must not trip the
// rule: no leading "v...q_" stem, no "_mm<digits>_" prefix at a word start.
double value_f32(double x) { return x; }
double comm_mm_scale(double x) { return x * 2.0; }

void fine_dispatch(double* re, double* im, unsigned lanes) {
  // The sanctioned route: the linalg::simd batch kernels.
  (void)re;
  (void)im;
  (void)lanes;
}

void justified_exception(double* a) {
  // lint:allow no-raw-intrinsics: fixture demonstrating a justified one-off prefetch hint
  _mm_prefetch(reinterpret_cast<const char*>(a), 0);
}

}  // namespace nplus::phy
