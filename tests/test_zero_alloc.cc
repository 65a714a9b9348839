// Counting-allocator proof of the kernel layer's core invariant: one
// steady-state per-subcarrier RX iteration — demodulate a symbol, gather the
// per-subcarrier receive vector, project/equalize it — performs zero heap
// allocations once its workspace is warm. The same holds for reading a
// built world's per-subcarrier channels and beliefs.
//
// Every operator new in this binary bumps a counter, so the assertions below
// would catch any allocation sneaking back into the kernels (a by-value
// temporary, a vector reallocation, a map lookup in the FFT). This file
// must stay its own test executable: the global operator new replacement
// applies binary-wide.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "channel/testbed.h"
#include "dsp/fft.h"
#include "linalg/decomp.h"
#include "linalg/mat.h"
#include "linalg/subspace.h"
#include "phy/channel_est.h"
#include "phy/ofdm.h"
#include "sim/world.h"
#include "util/rng.h"

namespace {

std::size_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size);
  if (!p) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size);
  if (!p) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nplus {
namespace {

using linalg::CMat;
using linalg::CVec;
using linalg::cdouble;

CMat random_matrix(std::size_t r, std::size_t c, util::Rng& rng) {
  CMat m(r, c);
  for (std::size_t i = 0; i < r; ++i) {
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.cgaussian(1.0);
  }
  return m;
}

TEST(ZeroAlloc, SmallMatrixKernelsAreAllocationFree) {
  util::Rng rng(1);
  const CMat a = random_matrix(4, 4, rng);
  const CMat b = random_matrix(4, 4, rng);
  const CVec x = random_matrix(4, 1, rng).col(0);

  // Warm up output capacities (a no-op for inline-sized results, but keeps
  // the invariant honest if capacities ever change).
  CMat ab, ah;
  CVec ax, ahx;
  linalg::mul_into(a, b, ab);
  linalg::mul_into(a, x, ax);
  linalg::mul_hermitian_into(a, x, ahx);
  linalg::hermitian_into(a, ah);

  const std::size_t before = g_allocations;
  for (int i = 0; i < 100; ++i) {
    linalg::mul_into(a, b, ab);
    linalg::mul_into(a, x, ax);
    linalg::mul_hermitian_into(a, x, ahx);
    linalg::hermitian_into(a, ah);
    // By-value small-matrix algebra is also allocation-free thanks to the
    // inline buffer — the 4x4 product below never touches the heap.
    const CMat prod = a * b;
    ASSERT_EQ(prod.rows(), 4u);
  }
  EXPECT_EQ(g_allocations, before);
}

TEST(ZeroAlloc, LuSolveWithWorkspaceIsAllocationFree) {
  util::Rng rng(2);
  const CMat a = random_matrix(4, 4, rng);
  const CVec b = random_matrix(4, 1, rng).col(0);

  linalg::Lu workspace;
  CVec x;
  ASSERT_TRUE(linalg::solve_into(a, b, workspace, x));  // warm-up

  const std::size_t before = g_allocations;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(linalg::solve_into(a, b, workspace, x));
  }
  EXPECT_EQ(g_allocations, before);
}

TEST(ZeroAlloc, SteadyStatePerSubcarrierRxIteration) {
  // One steady-state RX iteration, exactly as decode_frame runs it: strip
  // the CP and FFT the symbol (planned, batched), then per data subcarrier
  // gather the receive vector across antennas, project it onto the
  // interference-free subspace, and zero-force the streams.
  const phy::OfdmParams params;
  const std::size_t n = params.scaled_fft();
  const std::size_t n_rx = 3;
  const std::size_t n_streams = 2;
  const std::size_t n_syms = 4;

  util::Rng rng(3);

  // Received sample streams (one frame's worth of data symbols).
  std::vector<phy::Samples> rx(n_rx);
  for (auto& s : rx) {
    s.resize(n_syms * params.symbol_len());
    for (auto& v : s) v = rng.cgaussian(1.0);
  }

  // Per-subcarrier equalizer state, built once per frame (52 interference
  // bases + combiners). The steady-state loop below only reads these.
  std::vector<CMat> w(53), combiner(53);
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) continue;
    const std::size_t ki = static_cast<std::size_t>(k + 26);
    w[ki] = linalg::orthogonal_complement(random_matrix(n_rx, 1, rng));
    combiner[ki] = random_matrix(n_streams, n_rx, rng);
  }

  // Workspace, warmed by one full iteration before counting. One bins
  // buffer per antenna, exactly like decode_frame's all_bins.
  const nplus::dsp::FftPlan plan(n);
  std::vector<std::vector<cdouble>> all_bins(n_rx);
  CVec y, proj, s_hat;
  static const auto data_sc = phy::data_subcarriers();

  auto iterate = [&]() {
    double acc = 0.0;
    for (std::size_t a = 0; a < n_rx; ++a) {
      phy::ofdm_demod_symbols_into(rx[a], 0, n_syms, plan, all_bins[a],
                                   params);
    }
    for (std::size_t t = 0; t < n_syms; ++t) {
      for (std::size_t i = 0; i < params.n_data_subcarriers; ++i) {
        const int k = data_sc[i];
        const std::size_t ki = static_cast<std::size_t>(k + 26);
        const std::size_t bin = phy::subcarrier_bin(k, n);
        y.resize(n_rx);
        for (std::size_t a = 0; a < n_rx; ++a) {
          y[a] = all_bins[a][t * n + bin];
        }
        linalg::coordinates_in_into(w[ki], y, proj);
        linalg::mul_into(combiner[ki], y, s_hat);
        acc += std::norm(s_hat[0]) + std::norm(proj[0]);
      }
    }
    return acc;
  };

  const double warm = iterate();
  ASSERT_GT(warm, 0.0);

  const std::size_t before = g_allocations;
  double total = 0.0;
  for (int rep = 0; rep < 10; ++rep) total += iterate();
  EXPECT_EQ(g_allocations, before);
  EXPECT_GT(total, 0.0);
}

TEST(ZeroAlloc, LtfEstimationWithWorkspaceIsAllocationFree) {
  const phy::OfdmParams params;
  const std::size_t n = params.scaled_fft();
  util::Rng rng(4);

  phy::Samples rx(2 * params.scaled_cp() + 2 * n + 64);
  for (auto& v : rx) v = rng.cgaussian(1.0);

  const nplus::dsp::FftPlan plan(n);
  std::vector<cdouble> scratch;
  phy::ChannelEstimate est;
  phy::estimate_from_ltf_into(rx, 0, plan, scratch, est, params);  // warm-up

  const std::size_t before = g_allocations;
  for (int i = 0; i < 50; ++i) {
    phy::estimate_from_ltf_into(rx, 0, plan, scratch, est, params);
  }
  EXPECT_EQ(g_allocations, before);
}

TEST(ZeroAlloc, WorldReadsAreAllocationFree) {
  // Channel and belief reads return matrices by value, copied out of the
  // world's flat tables: up to 4x4 they stay in CMat's inline buffer. An
  // eager world is fully built, so no read materializes anything.
  const channel::Testbed tb;
  const std::vector<sim::NodeSpec> nodes = {{1}, {2}, {3}, {4}, {4}, {2}};
  const std::vector<std::size_t> locations = {0, 3, 6, 9, 13, 17};
  util::Rng rng(5);
  const sim::World world(tb, nodes, locations, rng);

  const std::size_t before = g_allocations;
  double total = 0.0;
  for (std::size_t a = 0; a < nodes.size(); ++a) {
    for (std::size_t b = 0; b < nodes.size(); ++b) {
      if (a == b) continue;
      for (std::size_t s = 0; s < sim::World::kSubcarriers; ++s) {
        const CMat h = world.channel(a, b, s);
        const CMat belief = world.reciprocal_channel(a, b, s);
        total += std::norm(h(0, 0)) + std::norm(belief(0, 0));
      }
    }
  }
  EXPECT_EQ(g_allocations, before);
  EXPECT_GT(total, 0.0);
}

}  // namespace
}  // namespace nplus
