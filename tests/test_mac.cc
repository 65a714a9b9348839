// Tests for the MAC layer: DCF backoff, the n+ two-level contention (all
// four Fig. 5 scenarios), and airtime/handshake accounting.
#include <gtest/gtest.h>

#include <map>

#include "mac/airtime.h"
#include "mac/contention.h"
#include "mac/dcf.h"
#include "util/rng.h"
#include "util/stats.h"

namespace nplus::mac {
namespace {

TEST(Backoff, CounterWithinWindow) {
  util::Rng rng(1);
  DcfConfig cfg;
  for (int i = 0; i < 200; ++i) {
    BackoffEntity b(cfg);
    b.start_new_packet(rng);
    EXPECT_GE(b.counter(), 0);
    EXPECT_LE(b.counter(), cfg.cw_min);
  }
}

TEST(Backoff, CollisionDoublesWindow) {
  util::Rng rng(2);
  BackoffEntity b;
  b.start_new_packet(rng);
  EXPECT_EQ(b.cw(), 15);
  b.on_collision(rng);
  EXPECT_EQ(b.cw(), 31);
  b.on_collision(rng);
  EXPECT_EQ(b.cw(), 63);
}

TEST(Backoff, WindowCapsAtCwMax) {
  util::Rng rng(3);
  BackoffEntity b;
  b.start_new_packet(rng);
  for (int i = 0; i < 12; ++i) b.on_collision(rng);
  EXPECT_EQ(b.cw(), 1023);
}

TEST(Contend, SingleStationWinsImmediately) {
  util::Rng rng(4);
  const auto out = contend(1, rng);
  EXPECT_EQ(out.winner, 0u);
  EXPECT_EQ(out.collisions, 0);
}

TEST(Contend, WinnerRoughlyUniform) {
  util::Rng rng(5);
  std::map<std::size_t, int> wins;
  const int n = 3000;
  for (int i = 0; i < n; ++i) wins[contend(3, rng).winner]++;
  for (const auto& [w, count] : wins) {
    EXPECT_NEAR(static_cast<double>(count) / n, 1.0 / 3.0, 0.05) << w;
  }
}

TEST(Contend, TimeIncludesDifsAndSlots) {
  util::Rng rng(6);
  const phy::MacTiming timing;
  const auto out = contend(2, rng, timing);
  EXPECT_GE(out.elapsed_s, timing.difs_s);
  EXPECT_NEAR(out.elapsed_s,
              timing.difs_s * (1 + out.collisions) +
                  out.idle_slots * timing.slot_s + out.collisions * 500e-6,
              1e-9);
}

// --- DCF statistics ------------------------------------------------------

TEST(Contend, WinnerUniformAcrossStationCounts) {
  // The winner among n symmetric backlogged stations must be uniform; a
  // bias here would skew every session's fairness numbers.
  for (const std::size_t n : {2u, 5u, 8u}) {
    util::Rng rng(100 + n);
    std::map<std::size_t, int> wins;
    const int trials = 4000;
    for (int i = 0; i < trials; ++i) wins[contend(n, rng).winner]++;
    EXPECT_EQ(wins.size(), n);
    for (const auto& [w, count] : wins) {
      EXPECT_NEAR(static_cast<double>(count) / trials,
                  1.0 / static_cast<double>(n), 0.035)
          << "n=" << n << " station " << w;
    }
  }
}

TEST(Contend, SingleStationAccountingExact) {
  // Hand-computed: one station never collides; it burns exactly its initial
  // backoff draw in idle slots and DIFS once.
  const phy::MacTiming timing;
  util::Rng rng(200);
  for (int i = 0; i < 300; ++i) {
    const auto out = contend(1, rng, timing);
    EXPECT_EQ(out.collisions, 0);
    EXPECT_GE(out.idle_slots, 0);
    EXPECT_LE(out.idle_slots, 15);  // cw_min
    EXPECT_NEAR(out.elapsed_s,
                timing.difs_s + out.idle_slots * timing.slot_s, 1e-12);
  }
}

TEST(Contend, ForcedFirstSlotCollisionResolves) {
  // Hand-computed small case: cw_min = 0 makes every station fire in slot
  // 0, forcing a collision; the doubled window (cw = 1) then resolves with
  // probability 1/2 per round. Check the exact accounting identity and that
  // idle slots can only accrue after the first collision.
  DcfConfig cfg;
  cfg.cw_min = 0;
  cfg.cw_max = 1;
  const phy::MacTiming timing;
  const double kCollisionCost = 500e-6;
  util::Rng rng(201);
  util::RunningStats collisions;
  for (int i = 0; i < 400; ++i) {
    const auto out = contend(2, rng, timing, cfg, kCollisionCost);
    EXPECT_GE(out.collisions, 1);  // slot 0 always collides
    // After each collision both counters are in {0, 1}: at most one idle
    // slot per resolution round.
    EXPECT_LE(out.idle_slots, out.collisions);
    EXPECT_NEAR(out.elapsed_s,
                timing.difs_s * (1 + out.collisions) +
                    out.idle_slots * timing.slot_s +
                    out.collisions * kCollisionCost,
                1e-12);
    collisions.add(out.collisions);
  }
  // Collisions beyond the forced first follow Geometric(1/2): mean total
  // = 1 + 1 = 2.
  EXPECT_NEAR(collisions.mean(), 2.0, 0.25);
}

TEST(Contend, CollisionsRareWithDefaultWindow) {
  // With cw_min = 15 and 3 stations, most rounds resolve without any
  // collision (P[all distinct draws] is high) — the sanity anchor for the
  // session's contention-overhead accounting.
  util::Rng rng(202);
  int with_collision = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    if (contend(3, rng).collisions > 0) ++with_collision;
  }
  EXPECT_LT(static_cast<double>(with_collision) / trials, 0.35);
  EXPECT_GT(with_collision, 0);  // but they do happen
}

// --- n+ contention: the four Fig. 5 scenarios ----------------------------

std::vector<Contender> three_pairs() {
  return {{0, 1}, {1, 2}, {2, 3}};  // tx1, tx2, tx3 with 1/2/3 antennas
}

// Finds the contention result matching a forced winner order by seeding.
TEST(NplusContention, Fig5aThreeAntennaWinnerTakesAll) {
  // When tx3 (3 antennas) wins first, nobody else can add a stream.
  util::Rng rng(7);
  for (int seed = 0; seed < 200; ++seed) {
    util::Rng r(seed);
    const auto res = nplus_contention(three_pairs(), r);
    EXPECT_EQ(res.total_streams, 3u);
    if (res.winners[0].contender_id == 2) {
      EXPECT_EQ(res.winners.size(), 1u);
      EXPECT_EQ(res.winners[0].n_streams, 3u);
    }
  }
}

TEST(NplusContention, Fig5bTwoThenOne) {
  for (int seed = 0; seed < 300; ++seed) {
    util::Rng r(seed);
    const auto res = nplus_contention(three_pairs(), r);
    if (res.winners[0].contender_id != 1) continue;
    // tx2 first: 2 streams; only tx3 can follow, with exactly 1 stream.
    EXPECT_EQ(res.winners[0].n_streams, 2u);
    ASSERT_EQ(res.winners.size(), 2u);
    EXPECT_EQ(res.winners[1].contender_id, 2u);
    EXPECT_EQ(res.winners[1].n_streams, 1u);
    EXPECT_EQ(res.winners[1].dof_before, 2u);
  }
}

TEST(NplusContention, Fig5cdSingleAntennaFirst) {
  bool saw_c = false, saw_d = false;
  for (int seed = 0; seed < 400; ++seed) {
    util::Rng r(seed);
    const auto res = nplus_contention(three_pairs(), r);
    if (res.winners[0].contender_id != 0) continue;
    EXPECT_EQ(res.winners[0].n_streams, 1u);
    if (res.winners.size() == 2) {
      // Fig 5(c): tx3 wins the secondary round with 2 streams.
      EXPECT_EQ(res.winners[1].contender_id, 2u);
      EXPECT_EQ(res.winners[1].n_streams, 2u);
      saw_c = true;
    } else {
      // Fig 5(d): tx2 then tx3, one stream each.
      ASSERT_EQ(res.winners.size(), 3u);
      EXPECT_EQ(res.winners[1].contender_id, 1u);
      EXPECT_EQ(res.winners[1].n_streams, 1u);
      EXPECT_EQ(res.winners[2].contender_id, 2u);
      EXPECT_EQ(res.winners[2].n_streams, 1u);
      saw_d = true;
    }
  }
  EXPECT_TRUE(saw_c);
  EXPECT_TRUE(saw_d);
}

TEST(NplusContention, AlwaysFillsAllDof) {
  // With a 3-antenna contender present, every outcome uses 3 streams
  // (the paper's "as many DoF as the largest transmitter" claim).
  for (int seed = 0; seed < 200; ++seed) {
    util::Rng r(1000 + seed);
    const auto res = nplus_contention(three_pairs(), r);
    EXPECT_EQ(res.total_streams, 3u);
  }
}

// --- Airtime accounting ---------------------------------------------------

TEST(Airtime, PreambleGrowsWithStreams) {
  AirtimeConfig cfg;
  const double p1 = preamble_s(cfg, 1);
  const double p3 = preamble_s(cfg, 3);
  // One extra LTF (160 samples = 16 us at 10 MHz) per extra stream.
  EXPECT_NEAR(p3 - p1, 2 * 16e-6, 1e-9);
}

TEST(Airtime, BodyMatchesSymbolCount) {
  AirtimeConfig cfg;
  const phy::Mcs& mcs = phy::mcs_by_index(5);
  const double body = body_s(cfg, mcs, 1500, 1);
  EXPECT_NEAR(body, 84 * 8e-6, 1e-9);
}

TEST(Airtime, HandshakeOverheadNearPaperEstimate) {
  // §3.5: "about 4% overhead for a 1500-byte packet at 18 Mb/s".
  AirtimeConfig cfg;
  const double f =
      handshake_overhead_fraction(cfg, phy::mcs_by_index(5), 1500);
  EXPECT_GT(f, 0.02);
  EXPECT_LT(f, 0.15);
}

TEST(Airtime, ExchangeLongerAtLowerRates) {
  AirtimeConfig cfg;
  const double slow = dot11n_exchange_s(cfg, phy::mcs_by_index(0), 1500, 1);
  const double fast = dot11n_exchange_s(cfg, phy::mcs_by_index(7), 1500, 1);
  EXPECT_GT(slow, 3.0 * fast);
}

TEST(Airtime, MoreStreamsShorterBody) {
  AirtimeConfig cfg;
  const phy::Mcs& mcs = phy::mcs_by_index(4);
  EXPECT_LT(body_s(cfg, mcs, 1500, 3), body_s(cfg, mcs, 1500, 1) / 2.5);
}

}  // namespace
}  // namespace nplus::mac
