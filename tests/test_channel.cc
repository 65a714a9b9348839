// Tests for the channel substrate: path loss, testbed placement, MIMO
// tapped-delay-line channels, reciprocity, and the signal-level Scene.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>

#include "channel/mimo_channel.h"
#include "channel/pathloss.h"
#include "channel/scene.h"
#include "channel/testbed.h"
#include "dsp/signal.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/units.h"

namespace nplus::channel {
namespace {

TEST(PathLoss, MonotoneInDistance) {
  PathLossModel pl;
  double prev = 0.0;
  for (double d = 1.0; d <= 30.0; d += 1.0) {
    const double loss = pl.median_loss_db(d);
    EXPECT_GT(loss, prev);
    prev = loss;
  }
}

TEST(PathLoss, ReferenceLossAtOneMeter) {
  PathLossModel pl;
  EXPECT_DOUBLE_EQ(pl.median_loss_db(1.0), pl.ref_loss_db);
  // Below min distance clamps.
  EXPECT_DOUBLE_EQ(pl.median_loss_db(0.1), pl.ref_loss_db);
}

TEST(PathLoss, SlopeMatchesExponent) {
  PathLossModel pl;
  const double l10 = pl.median_loss_db(10.0);
  const double l1 = pl.median_loss_db(1.0);
  EXPECT_NEAR(l10 - l1, 10.0 * pl.exponent, 1e-9);
}

TEST(PathLoss, ShadowingHasConfiguredSigma) {
  PathLossModel pl;
  util::Rng rng(1);
  util::RunningStats s;
  for (int i = 0; i < 20000; ++i) {
    s.add(pl.sample_loss_db(10.0, rng) - pl.median_loss_db(10.0));
  }
  EXPECT_NEAR(s.mean(), 0.0, 0.1);
  EXPECT_NEAR(s.stddev(), pl.shadowing_sigma_db, 0.1);
}

TEST(LinkBudget, SnrArithmetic) {
  LinkBudget b;
  EXPECT_DOUBLE_EQ(b.snr_db(70.0),
                   b.tx_power_dbm - 70.0 - b.noise_floor_dbm);
}

TEST(Testbed, DefaultFloorPlan) {
  Testbed tb;
  EXPECT_EQ(tb.n_locations(), 20u);
  // Distances span a realistic office range.
  double min_d = 1e9, max_d = 0.0;
  for (std::size_t a = 0; a < tb.n_locations(); ++a) {
    for (std::size_t b = a + 1; b < tb.n_locations(); ++b) {
      min_d = std::min(min_d, tb.distance_m(a, b));
      max_d = std::max(max_d, tb.distance_m(a, b));
    }
  }
  EXPECT_GT(min_d, 1.0);
  EXPECT_GT(max_d, 20.0);
}

TEST(Testbed, PlacementDistinct) {
  Testbed tb;
  util::Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const auto p = tb.random_placement(6, rng);
    ASSERT_EQ(p.size(), 6u);
    for (std::size_t i = 0; i < p.size(); ++i) {
      for (std::size_t j = i + 1; j < p.size(); ++j) {
        EXPECT_NE(p[i], p[j]);
      }
    }
  }
}

TEST(Testbed, LinkSnrInPaperRange) {
  // The calibration goal: link SNRs across the floor span roughly the
  // paper's 5-35 dB range.
  Testbed tb;
  util::Rng rng(3);
  util::RunningStats snr;
  for (int i = 0; i < 500; ++i) {
    const auto p = tb.random_placement(2, rng);
    const double loss = -util::to_db(tb.link_gain(p[0], p[1], rng));
    snr.add(tb.budget().snr_db(loss));
  }
  EXPECT_GT(snr.mean(), 10.0);
  EXPECT_LT(snr.mean(), 30.0);
  EXPECT_GT(snr.max(), 28.0);
  EXPECT_LT(snr.min(), 12.0);
}

TEST(MimoChannel, DimensionsAndGain) {
  util::Rng rng(4);
  ChannelProfile profile;
  util::RunningStats gain;
  for (int i = 0; i < 300; ++i) {
    const MimoChannel ch(2, 3, 0.5, profile, rng);
    EXPECT_EQ(ch.n_rx(), 2u);
    EXPECT_EQ(ch.n_tx(), 3u);
    gain.add(ch.mean_gain());
  }
  EXPECT_NEAR(gain.mean(), 0.5, 0.05);
}

TEST(MimoChannel, FreqResponseMatchesTapDft) {
  util::Rng rng(5);
  ChannelProfile profile;
  const MimoChannel ch(1, 1, 1.0, profile, rng);
  const auto& taps = ch.taps()[0][0];
  for (int k : {-26, -7, 3, 26}) {
    linalg::cdouble expected{0.0, 0.0};
    const std::size_t bin = k >= 0 ? static_cast<std::size_t>(k)
                                   : 64 - static_cast<std::size_t>(-k);
    for (std::size_t l = 0; l < taps.size(); ++l) {
      const double ang = -2.0 * M_PI * static_cast<double>(bin * l) / 64.0;
      expected += taps[l] * linalg::cdouble{std::cos(ang), std::sin(ang)};
    }
    EXPECT_NEAR(std::abs(ch.freq_response(k)(0, 0) - expected), 0.0, 1e-12);
  }
}

// The per-element formula freq_response evaluated before it read a
// twiddle table: one cos/sin pair per (rx, tx, tap), kept here as the
// reference the table must reproduce bit for bit.
CMat reference_response(const MimoChannel& ch, int k, std::size_t fft_size) {
  const std::size_t bin = k >= 0 ? static_cast<std::size_t>(k)
                                 : fft_size - static_cast<std::size_t>(-k);
  CMat h(ch.n_rx(), ch.n_tx());
  for (std::size_t r = 0; r < ch.n_rx(); ++r) {
    for (std::size_t t = 0; t < ch.n_tx(); ++t) {
      linalg::cdouble acc{0.0, 0.0};
      const auto& taps = ch.taps()[r][t];
      for (std::size_t l = 0; l < taps.size(); ++l) {
        const double ang = -2.0 * std::numbers::pi *
                           static_cast<double>(bin) * static_cast<double>(l) /
                           static_cast<double>(fft_size);
        acc += taps[l] * linalg::cdouble{std::cos(ang), std::sin(ang)};
      }
      h(r, t) = acc;
    }
  }
  return h;
}

bool same_bytes(const CMat& x, const CMat& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(),
                     x.rows() * x.cols() * sizeof(linalg::cdouble)) == 0;
}

TEST(MimoChannel, TwiddleTableMatchesPerElementFormulaBitForBit) {
  util::Rng rng(12);
  std::size_t checked = 0;
  for (std::size_t fft_size : {64u, 128u, 256u}) {
    for (std::size_t n_taps : {1u, 3u, 8u}) {
      const Twiddles& table = Twiddles::shared(fft_size, n_taps);
      for (bool los : {false, true}) {
        ChannelProfile profile;
        profile.n_taps = n_taps;
        profile.line_of_sight = los;
        MimoChannel ch(3, 2, 0.7, profile, rng);
        // Fresh, evolved, and rescaled taps: every state World reads.
        for (int state = 0; state < 3; ++state) {
          if (state == 1) ch.evolve(0.6, rng);
          if (state == 2) ch.scale_gain(0.3);
          // Every data and pilot subcarrier (DC excluded).
          for (int k = -26; k <= 26; ++k) {
            if (k == 0) continue;
            const CMat want = reference_response(ch, k, fft_size);
            CMat from_table(ch.n_rx(), ch.n_tx());
            ch.freq_response_into(k, table, from_table.data());
            EXPECT_TRUE(same_bytes(from_table, want))
                << "fft " << fft_size << " taps " << n_taps << " los "
                << los << " state " << state << " k " << k;
            EXPECT_TRUE(same_bytes(ch.freq_response(k, fft_size), want))
                << "fft " << fft_size << " taps " << n_taps << " los "
                << los << " state " << state << " k " << k;
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 3u * 3u * 2u * 3u * 52u);
}

TEST(MimoChannel, AdjacentSubcarriersCorrelated) {
  // §3.5 relies on channels changing slowly across subcarriers.
  util::Rng rng(6);
  ChannelProfile profile;
  double corr_acc = 0.0;
  int n = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const MimoChannel ch(1, 1, 1.0, profile, rng);
    for (int k = -26; k < 26; ++k) {
      if (k == 0 || k + 1 == 0) continue;
      const auto a = ch.freq_response(k)(0, 0);
      const auto b = ch.freq_response(k + 1)(0, 0);
      corr_acc += std::abs(a - b) / std::max(std::abs(a), 1e-9);
      ++n;
    }
  }
  EXPECT_LT(corr_acc / n, 0.5);  // small relative change per subcarrier
}

TEST(MimoChannel, PropagateConvolvesEachPair) {
  util::Rng rng(7);
  ChannelProfile profile;
  const MimoChannel ch(2, 2, 1.0, profile, rng);
  // Impulse into antenna 0 only.
  std::vector<Samples> tx(2);
  tx[0] = {linalg::cdouble{1.0, 0.0}};
  tx[1] = {linalg::cdouble{0.0, 0.0}};
  const auto rx = ch.propagate(tx);
  for (std::size_t r = 0; r < 2; ++r) {
    const auto& taps = ch.taps()[r][0];
    ASSERT_EQ(rx[r].size(), taps.size());
    for (std::size_t l = 0; l < taps.size(); ++l) {
      EXPECT_NEAR(std::abs(rx[r][l] - taps[l]), 0.0, 1e-12);
    }
  }
}

TEST(MimoChannel, ReverseIsTransposeWithoutCalibrationError) {
  util::Rng rng(8);
  ChannelProfile profile;
  const MimoChannel fwd(2, 3, 1.0, profile, rng);
  const MimoChannel rev = fwd.reverse(0.0, rng);
  EXPECT_EQ(rev.n_rx(), 3u);
  EXPECT_EQ(rev.n_tx(), 2u);
  for (int k : {-20, 5, 26}) {
    const auto h = fwd.freq_response(k);
    const auto ht = rev.freq_response(k);
    EXPECT_NEAR(linalg::max_abs_diff(ht, h.transpose()), 0.0, 1e-12);
  }
}

TEST(MimoChannel, CalibrationErrorBoundsReciprocityAccuracy) {
  util::Rng rng(9);
  ChannelProfile profile;
  util::RunningStats rel_err_db;
  for (int i = 0; i < 200; ++i) {
    const MimoChannel fwd(1, 1, 1.0, profile, rng);
    const MimoChannel rev = fwd.reverse(0.045, rng);
    const auto h = fwd.freq_response(1)(0, 0);
    const auto hb = rev.freq_response(1)(0, 0);
    if (std::abs(h) < 1e-6) continue;
    rel_err_db.add(util::to_db(std::norm((hb - h) / h)));
  }
  // Mean relative error ~ -27 dB: the hardware cancellation limit L.
  EXPECT_NEAR(rel_err_db.mean(), -27.0, 3.0);
}

TEST(Scene, NoiseFloorOnly) {
  util::Rng rng(10);
  Scene scene(0.01, rng);
  const auto node = scene.add_node(2);
  const auto rx = scene.render(node, 4000);
  ASSERT_EQ(rx.size(), 2u);
  EXPECT_NEAR(nplus::dsp::mean_power(rx[0]), 0.01, 0.001);
}

TEST(Scene, TransmissionArrivesAtOffset) {
  util::Rng rng(11);
  Scene scene(0.0, rng);
  const auto node = scene.add_node(1);
  // Identity channel: single unit tap.
  MimoChannel ch({{{linalg::cdouble{1.0, 0.0}}}});
  const Samples burst(16, linalg::cdouble{1.0, 0.0});
  const auto t = scene.add_transmission({burst}, 100);
  scene.set_channel(t, node, std::move(ch));
  const auto rx = scene.render(node, 200);
  EXPECT_NEAR(std::abs(rx[0][99]), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(rx[0][100]), 1.0, 1e-12);
  EXPECT_NEAR(std::abs(rx[0][115]), 1.0, 1e-12);
  EXPECT_NEAR(std::abs(rx[0][116]), 0.0, 1e-12);
}

TEST(Scene, ConcurrentTransmissionsSuperpose) {
  util::Rng rng(12);
  Scene scene(0.0, rng);
  const auto node = scene.add_node(1);
  MimoChannel ch1({{{linalg::cdouble{1.0, 0.0}}}});
  MimoChannel ch2({{{linalg::cdouble{0.0, 1.0}}}});
  const Samples a(8, linalg::cdouble{1.0, 0.0});
  const Samples b(8, linalg::cdouble{1.0, 0.0});
  const auto t1 = scene.add_transmission({a}, 0);
  const auto t2 = scene.add_transmission({b}, 4);
  scene.set_channel(t1, node, std::move(ch1));
  scene.set_channel(t2, node, std::move(ch2));
  const auto rx = scene.render(node, 16);
  EXPECT_NEAR(std::abs(rx[0][2] - linalg::cdouble{1.0, 0.0}), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(rx[0][5] - linalg::cdouble{1.0, 1.0}), 0.0, 1e-12);
}

TEST(Scene, TimingOffsetImpairmentDelays) {
  util::Rng rng(13);
  Scene scene(0.0, rng);
  const auto node = scene.add_node(1);
  MimoChannel ch({{{linalg::cdouble{1.0, 0.0}}}});
  TxImpairments imp;
  imp.timing_offset = 7;
  const Samples burst(4, linalg::cdouble{1.0, 0.0});
  const auto t = scene.add_transmission({burst}, 10, imp);
  scene.set_channel(t, node, std::move(ch));
  const auto rx = scene.render(node, 40);
  EXPECT_NEAR(std::abs(rx[0][16]), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(rx[0][17]), 1.0, 1e-12);
}

TEST(Scene, CfoRotatesSignal) {
  util::Rng rng(14);
  Scene scene(0.0, rng);
  const auto node = scene.add_node(1);
  MimoChannel ch({{{linalg::cdouble{1.0, 0.0}}}});
  TxImpairments imp;
  imp.cfo_norm = 0.25;  // quarter cycle per sample
  const Samples burst(4, linalg::cdouble{1.0, 0.0});
  const auto t = scene.add_transmission({burst}, 0, imp);
  scene.set_channel(t, node, std::move(ch));
  const auto rx = scene.render(node, 8);
  // Sample 1 rotated by pi/2.
  EXPECT_NEAR(std::arg(rx[0][1]), M_PI / 2.0, 1e-9);
}

}  // namespace
}  // namespace nplus::channel
