// Determinism contract of the parallel experiment harness: every entry
// point that shards work across the ThreadPool must produce bit-identical
// results for any thread count, because each work item draws exclusively
// from an RNG stream forked (in item order) before dispatch. Runs under the
// `tsan` ctest label so a ThreadSanitizer build exercises the same paths.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "baselines/dot11n.h"
#include "channel/mimo_channel.h"
#include "channel/testbed.h"
#include "sim/runner.h"
#include "sim/scenarios.h"
#include "sim/signal_experiments.h"
#include "util/thread_pool.h"

namespace nplus::sim {
namespace {

// More workers than this host has cores still exercises interleaving; the
// contract must hold for any count.
std::size_t many_threads() {
  const std::size_t hw = util::default_thread_count();
  return hw > 1 ? hw : 4;
}

// Both runs must complete every placement and agree sample for sample.
void expect_identical(const SupervisedExperiment& ea,
                      const SupervisedExperiment& eb) {
  ASSERT_TRUE(ea.report.all_ok()) << ea.report.summary();
  ASSERT_TRUE(eb.report.all_ok()) << eb.report.summary();
  const std::vector<MethodResult>& a = ea.methods;
  const std::vector<MethodResult>& b = eb.methods;
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t m = 0; m < a.size(); ++m) {
    ASSERT_EQ(a[m].samples.size(), b[m].samples.size());
    for (std::size_t p = 0; p < a[m].samples.size(); ++p) {
      const auto& sa = a[m].samples[p];
      const auto& sb = b[m].samples[p];
      EXPECT_DOUBLE_EQ(sa.total_mbps, sb.total_mbps) << "m=" << m
                                                     << " p=" << p;
      ASSERT_EQ(sa.per_link_mbps.size(), sb.per_link_mbps.size());
      for (std::size_t l = 0; l < sa.per_link_mbps.size(); ++l) {
        EXPECT_DOUBLE_EQ(sa.per_link_mbps[l], sb.per_link_mbps[l])
            << "m=" << m << " p=" << p << " l=" << l;
      }
    }
  }
}

TEST(ParallelDeterminism, RunExperimentBitIdenticalAcrossThreadCounts) {
  const channel::Testbed tb;
  const Scenario sc = three_pair_scenario();
  ExperimentConfig cfg;
  cfg.n_placements = 8;
  cfg.rounds_per_placement = 2;
  cfg.seed = 123;
  const std::vector<RoundFn> methods = {
      make_nplus_round_fn(sc, cfg.round),
      baselines::make_dot11n_round_fn(sc, cfg.round)};

  cfg.n_threads = 1;
  const SupervisedExperiment serial = run_experiment(tb, sc, cfg, methods);
  cfg.n_threads = many_threads();
  const SupervisedExperiment parallel = run_experiment(tb, sc, cfg, methods);
  cfg.n_threads = 3;  // odd count -> uneven shards
  const SupervisedExperiment odd = run_experiment(tb, sc, cfg, methods);

  expect_identical(serial, parallel);
  expect_identical(serial, odd);
}

TEST(ParallelDeterminism, NullingSweepBitIdenticalAcrossThreadCounts) {
  const channel::Testbed tb;
  SignalExpConfig cfg;
  cfg.seed = 9;
  cfg.n_data_symbols = 4;  // keep the signal-level trials quick
  const std::size_t kTrials = 4;

  const auto serial = run_nulling_sweep(tb, kTrials, cfg, 1);
  const auto parallel = run_nulling_sweep(tb, kTrials, cfg, many_threads());
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t t = 0; t < serial.size(); ++t) {
    EXPECT_DOUBLE_EQ(serial[t].wanted_snr_db, parallel[t].wanted_snr_db);
    EXPECT_DOUBLE_EQ(serial[t].unwanted_snr_db, parallel[t].unwanted_snr_db);
    EXPECT_DOUBLE_EQ(serial[t].snr_after_db, parallel[t].snr_after_db);
    EXPECT_DOUBLE_EQ(serial[t].cancellation_db, parallel[t].cancellation_db);
  }
}

TEST(ParallelDeterminism, AlignmentSweepBitIdenticalAcrossThreadCounts) {
  const channel::Testbed tb;
  SignalExpConfig cfg;
  cfg.seed = 11;
  cfg.n_data_symbols = 4;
  const std::size_t kTrials = 2;

  const auto serial = run_alignment_sweep(tb, kTrials, cfg, 1);
  const auto parallel = run_alignment_sweep(tb, kTrials, cfg, many_threads());
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t t = 0; t < serial.size(); ++t) {
    EXPECT_DOUBLE_EQ(serial[t].wanted_snr_db, parallel[t].wanted_snr_db);
    EXPECT_DOUBLE_EQ(serial[t].unwanted_snr_db, parallel[t].unwanted_snr_db);
    EXPECT_DOUBLE_EQ(serial[t].snr_after_db, parallel[t].snr_after_db);
  }
}

TEST(ParallelDeterminism, CarrierSenseSweepBitIdenticalAcrossThreadCounts) {
  CarrierSenseConfigExp cfg;
  cfg.seed = 5;
  const std::size_t kTrials = 3;

  const auto serial = run_carrier_sense_sweep(kTrials, cfg, 1);
  const auto parallel = run_carrier_sense_sweep(kTrials, cfg, many_threads());
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t t = 0; t < serial.size(); ++t) {
    EXPECT_DOUBLE_EQ(serial[t].jump_raw_db, parallel[t].jump_raw_db);
    EXPECT_DOUBLE_EQ(serial[t].jump_projected_db,
                     parallel[t].jump_projected_db);
    EXPECT_DOUBLE_EQ(serial[t].corr_raw_active, parallel[t].corr_raw_active);
    EXPECT_DOUBLE_EQ(serial[t].corr_projected_active,
                     parallel[t].corr_projected_active);
    ASSERT_EQ(serial[t].power_raw.size(), parallel[t].power_raw.size());
    for (std::size_t s = 0; s < serial[t].power_raw.size(); ++s) {
      EXPECT_DOUBLE_EQ(serial[t].power_raw[s], parallel[t].power_raw[s]);
    }
  }
}

TEST(SharedTwiddles, ConcurrentFirstRequestsShareOneTable) {
  // Every worker builds worlds, and every world asks for its grid's shared
  // table. Race the very first requests for keys nothing else in this
  // process uses: all workers must get the same, fully built table.
  const std::vector<std::pair<std::size_t, std::size_t>> keys = {
      {512, 5}, {1024, 2}, {512, 6}};
  const std::size_t n = 64;
  std::vector<const channel::Twiddles*> got(n * keys.size(), nullptr);
  util::ThreadPool pool(many_threads());
  pool.parallel_for(0, got.size(), [&](std::size_t i, std::size_t) {
    const auto& [fft_size, n_taps] = keys[i % keys.size()];
    got[i] = &channel::Twiddles::shared(fft_size, n_taps);
  });
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const auto& [fft_size, n_taps] = keys[k];
    const channel::Twiddles fresh(fft_size, n_taps);
    for (std::size_t i = k; i < got.size(); i += keys.size()) {
      ASSERT_EQ(got[i], got[k]);
    }
    EXPECT_EQ(got[k]->fft_size(), fft_size);
    ASSERT_EQ(got[k]->n_taps(), n_taps);
    for (int sc = -26; sc <= 26; ++sc) {
      if (sc == 0) continue;
      EXPECT_EQ(std::memcmp(got[k]->row(sc), fresh.row(sc),
                            n_taps * sizeof(linalg::cdouble)),
                0);
    }
  }
}

TEST(ParallelDeterminism, RepeatedParallelRunsIdentical) {
  // Same thread count twice: scheduling noise between runs must not leak
  // into results either.
  const channel::Testbed tb;
  const Scenario sc = three_pair_scenario();
  ExperimentConfig cfg;
  cfg.n_placements = 5;
  cfg.rounds_per_placement = 2;
  cfg.seed = 77;
  cfg.n_threads = many_threads();
  const std::vector<RoundFn> methods = {make_nplus_round_fn(sc, cfg.round)};
  const SupervisedExperiment a = run_experiment(tb, sc, cfg, methods);
  const SupervisedExperiment b = run_experiment(tb, sc, cfg, methods);
  expect_identical(a, b);
}

}  // namespace
}  // namespace nplus::sim
