// LINT-PATH: src/linalg/simd/fixture_kernels_ok.cc
// The batch-kernel directory is the one place raw intrinsics are allowed
// (directory allowlist): this is where the per-lane byte-identity contract
// is implemented and tested.
#include <immintrin.h>
#include <arm_neon.h>

namespace nplus::linalg::simd::detail {

void kernel_avx2(double* a, const double* b) {
  __m256d va = _mm256_loadu_pd(a);
  __m256d vb = _mm256_loadu_pd(b);
  _mm256_storeu_pd(a, _mm256_add_pd(va, vb));
}

void kernel_neon(double* a, const double* b) {
  float64x2_t va = vld1q_f64(a);
  float64x2_t vb = vld1q_f64(b);
  vst1q_f64(a, vaddq_f64(va, vb));
}

}  // namespace nplus::linalg::simd::detail
