// LINT-PATH: src/phy/fixture_raw_intrinsics.cc
// Raw vendor intrinsics outside src/linalg/simd/ bypass the batch kernels:
// the byte-identity harness against linalg/mat.cc only covers kernels that
// live behind linalg::simd.
#include <immintrin.h>  // EXPECT: no-raw-intrinsics
#include <arm_neon.h>   // EXPECT: no-raw-intrinsics

namespace nplus::phy {

void bad_avx2(double* a, const double* b) {
  __m256d va = _mm256_loadu_pd(a);      // EXPECT: no-raw-intrinsics
  __m256d vb = _mm256_loadu_pd(b);      // EXPECT: no-raw-intrinsics
  _mm256_storeu_pd(a, _mm256_add_pd(va, vb));  // EXPECT: no-raw-intrinsics
}

void bad_neon(double* a, const double* b) {
  float64x2_t va = vld1q_f64(a);  // EXPECT: no-raw-intrinsics
  float64x2_t vb = vld1q_f64(b);  // EXPECT: no-raw-intrinsics
  vst1q_f64(a, vaddq_f64(va, vb));  // EXPECT: no-raw-intrinsics
}

void bad_type_only(void* p) {
  // A bare vector type is a finding even without a call: it still pins the
  // TU to one ISA and dodges the batch kernels.
  __m128d* q = static_cast<__m128d*>(p);  // EXPECT: no-raw-intrinsics
  (void)q;
}

}  // namespace nplus::phy
