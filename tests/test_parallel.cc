// Determinism contract of the parallel experiment harness: every entry
// point that shards work across the ThreadPool must produce bit-identical
// results for any thread count, because each work item draws exclusively
// from an RNG stream forked (in item order) before dispatch. Runs under the
// `tsan` ctest label so a ThreadSanitizer build exercises the same paths.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "channel/mimo_channel.h"
#include "channel/testbed.h"
#include "sim/checkpoint_runner.h"
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

TEST(ParallelDeterminism, PairedPlacementSweepBitIdenticalAcrossThreadCounts) {
  // The sweep executor under the tsan label: a paired n+ / 802.11n
  // comparison on testbed placements, serial, wide, odd and repeated.
  const std::vector<SweepItem> items = testbed_comparison(
      three_pair_scenario(), 6, {Scheme::kNplus, Scheme::kDot11n}, 2,
      RoundConfig{});
  const auto run = [&](std::size_t threads) {
    RunnerConfig cfg;
    cfg.supervisor.n_threads = threads;
    const SweepOutcome out = CheckpointedRunner(items, 123, cfg).run();
    EXPECT_TRUE(out.complete()) << out.report.summary();
    util::ByteWriter w;
    for (const SessionResult& r : out.results) serialize_session_result(r, w);
    return w.take();
  };
  const std::vector<std::uint8_t> serial = run(1);
  EXPECT_EQ(run(many_threads()), serial);
  EXPECT_EQ(run(3), serial);  // odd count -> uneven shards
  EXPECT_EQ(run(many_threads()), serial);
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

}  // namespace
}  // namespace nplus::sim
