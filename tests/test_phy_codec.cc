// Tests for the bit-level PHY: CRC, scrambler, convolutional code +
// Viterbi (all rates, error correction, bit-identity of every trellis build
// with the push-form reference decoder, and of the encoder and depuncturer
// with their pattern-walk references), interleaver, constellations (both
// demappers memcmp'd against a per-symbol max-log reference), MCS tables,
// effective-SNR rate selection, and the fused encode, demap→deinterleave
// and tail stages against the bit-by-bit chain they replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "phy/constellation.h"
#include "phy/conv_code.h"
#include "phy/conv_code_internal.h"
#include "phy/crc.h"
#include "phy/esnr.h"
#include "phy/frame.h"
#include "phy/interleaver.h"
#include "phy/mcs.h"
#include "phy/scrambler.h"
#include "util/rng.h"
#include "util/units.h"

namespace nplus::phy {
namespace {

Bits random_bits(std::size_t n, util::Rng& rng) {
  Bits b(n);
  for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform_int(2u));
  return b;
}

TEST(Crc32, KnownVector) {
  // CRC-32 of "123456789" is 0xCBF43926 (standard check value).
  const std::vector<std::uint8_t> data = {'1', '2', '3', '4', '5',
                                          '6', '7', '8', '9'};
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(Crc32, DetectsSingleBitError) {
  util::Rng rng(1);
  std::vector<std::uint8_t> data(100);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_int(256u));
  const std::uint32_t good = crc32(data);
  for (int i = 0; i < 20; ++i) {
    auto corrupted = data;
    corrupted[rng.uniform_int(100u)] ^=
        static_cast<std::uint8_t>(1u << rng.uniform_int(8u));
    EXPECT_NE(crc32(corrupted), good);
  }
}

TEST(Crc8, DetectsErrors) {
  const std::vector<std::uint8_t> data = {1, 2, 3, 4, 5};
  auto bad = data;
  bad[2] ^= 0x10;
  EXPECT_NE(crc8(data), crc8(bad));
}

// The bit-by-bit stages encode_payload and decode_payload ran before they
// were fused, kept as the references the fused forms must match byte for
// byte: the register-stepping scrambler, bytes to one-byte-per-bit vectors
// MSB first, stream-wide (de)interleavers over interleave_map, and the
// whole-frame chains.
namespace old_chain {

// The bit-by-bit scrambler: one register step per bit. Self-inverse.
Bits scramble(const Bits& bits, std::uint8_t seed = 0x5D) {
  Scrambler s(seed);
  Bits out = bits;
  for (auto& b : out) b = static_cast<std::uint8_t>((b ^ s.next_bit()) & 1u);
  return out;
}

Bits descramble(const Bits& bits) { return scramble(bits); }

Bits bytes_to_bits(const std::vector<std::uint8_t>& bytes) {
  Bits bits;
  bits.reserve(bytes.size() * 8);
  for (std::uint8_t b : bytes) {
    for (int i = 7; i >= 0; --i) {
      bits.push_back(static_cast<std::uint8_t>((b >> i) & 1u));
    }
  }
  return bits;
}

std::vector<std::uint8_t> bits_to_bytes(const Bits& bits) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(bits.size() / 8);
  for (std::size_t i = 0; i + 8 <= bits.size(); i += 8) {
    std::uint8_t b = 0;
    for (std::size_t j = 0; j < 8; ++j) {
      b = static_cast<std::uint8_t>((b << 1) | (bits[i + j] & 1u));
    }
    bytes.push_back(b);
  }
  return bytes;
}

Bits interleave(const Bits& in, std::size_t n_cbps, std::size_t n_bpsc) {
  assert(in.size() % n_cbps == 0);
  const auto map = interleave_map(n_cbps, n_bpsc);
  Bits out(in.size());
  for (std::size_t sym = 0; sym < in.size() / n_cbps; ++sym) {
    const std::size_t base = sym * n_cbps;
    for (std::size_t k = 0; k < n_cbps; ++k) out[base + map[k]] = in[base + k];
  }
  return out;
}

Bits deinterleave(const Bits& in, std::size_t n_cbps, std::size_t n_bpsc) {
  assert(in.size() % n_cbps == 0);
  const auto map = interleave_map(n_cbps, n_bpsc);
  Bits out(in.size());
  for (std::size_t sym = 0; sym < in.size() / n_cbps; ++sym) {
    const std::size_t base = sym * n_cbps;
    for (std::size_t k = 0; k < n_cbps; ++k) out[base + k] = in[base + map[k]];
  }
  return out;
}

std::vector<double> deinterleave_soft(const std::vector<double>& in,
                                      std::size_t n_cbps,
                                      std::size_t n_bpsc) {
  assert(in.size() % n_cbps == 0);
  const auto map = interleave_map(n_cbps, n_bpsc);
  std::vector<double> out(in.size());
  for (std::size_t sym = 0; sym < in.size() / n_cbps; ++sym) {
    const std::size_t base = sym * n_cbps;
    for (std::size_t k = 0; k < n_cbps; ++k) out[base + k] = in[base + map[k]];
  }
  return out;
}

// Data-field bits before coding: service + payload + CRC32 + tail, padded
// to whole OFDM symbols.
std::size_t padded_data_bits(std::size_t payload_bytes, const Mcs& mcs) {
  const std::size_t raw = 16 + 8 * (payload_bytes + 4) + 6;
  return (raw + mcs.n_dbps - 1) / mcs.n_dbps * mcs.n_dbps;
}

// The scrambled data field: what encode_payload feeds the encoder, and what
// an error-free Viterbi pass gives back.
Bits scrambled_data_field(const std::vector<std::uint8_t>& payload,
                          const Mcs& mcs) {
  std::vector<std::uint8_t> with_crc = payload;
  const std::uint32_t fcs = crc32(payload);
  with_crc.push_back(static_cast<std::uint8_t>(fcs >> 24));
  with_crc.push_back(static_cast<std::uint8_t>(fcs >> 16));
  with_crc.push_back(static_cast<std::uint8_t>(fcs >> 8));
  with_crc.push_back(static_cast<std::uint8_t>(fcs));

  Bits bits(16, 0);
  const Bits data_bits = bytes_to_bits(with_crc);
  bits.insert(bits.end(), data_bits.begin(), data_bits.end());
  bits.resize(padded_data_bits(payload.size(), mcs), 0);

  Bits scrambled = scramble(bits);
  const std::size_t tail_start = 16 + data_bits.size();
  for (std::size_t i = 0; i < 6; ++i) scrambled[tail_start + i] = 0;
  return scrambled;
}

std::vector<cdouble> encode_payload(const std::vector<std::uint8_t>& payload,
                                    const Mcs& mcs) {
  const Bits coded =
      conv_encode(scrambled_data_field(payload, mcs), mcs.code_rate);
  const Bits inter =
      interleave(coded, mcs.n_cbps, bits_per_symbol(mcs.modulation));
  return map_bits(inter, mcs.modulation);
}

// decode_payload's tail on the Viterbi output: descramble, drop the service
// field, pack, check the CRC-32.
std::optional<std::vector<std::uint8_t>> unpack_payload(
    const Bits& scrambled, std::size_t payload_bytes) {
  const Bits bits = descramble(scrambled);
  const std::size_t need = 16 + 8 * (payload_bytes + 4);
  if (bits.size() < need) return std::nullopt;
  const Bits body(bits.begin() + 16, bits.begin() + static_cast<long>(need));
  std::vector<std::uint8_t> bytes = bits_to_bytes(body);
  std::vector<std::uint8_t> payload(bytes.begin(), bytes.end() - 4);
  const std::uint32_t fcs =
      (static_cast<std::uint32_t>(bytes[bytes.size() - 4]) << 24) |
      (static_cast<std::uint32_t>(bytes[bytes.size() - 3]) << 16) |
      (static_cast<std::uint32_t>(bytes[bytes.size() - 2]) << 8) |
      static_cast<std::uint32_t>(bytes[bytes.size() - 1]);
  if (crc32(payload) != fcs) return std::nullopt;
  return payload;
}

}  // namespace old_chain

TEST(Scrambler, SelfInverse) {
  util::Rng rng(2);
  const Bits data = random_bits(1000, rng);
  EXPECT_EQ(old_chain::descramble(old_chain::scramble(data)), data);
}

TEST(Scrambler, Whitens) {
  // All-zeros input should come out roughly balanced.
  Bits zeros(127 * 4, 0);
  const Bits s = old_chain::scramble(zeros);
  int ones = 0;
  for (auto b : s) ones += b;
  EXPECT_GT(ones, static_cast<int>(s.size()) / 3);
  EXPECT_LT(ones, 2 * static_cast<int>(s.size()) / 3);
}

TEST(Scrambler, PeriodIs127) {
  Scrambler s(0x5D);
  std::vector<std::uint8_t> first;
  for (int i = 0; i < 127; ++i) first.push_back(s.next_bit());
  for (int i = 0; i < 127; ++i) EXPECT_EQ(s.next_bit(), first[size_t(i)]);
}

TEST(Scrambler, PeriodTableIsTheRegisterSequence) {
  for (const std::uint8_t seed : {std::uint8_t{0x5D}, std::uint8_t{0x01},
                                  std::uint8_t{0x7F}}) {
    Scrambler s(seed);
    const auto period = scrambler_period(seed);
    for (std::size_t i = 0; i < 3 * kScramblerPeriod; ++i) {
      ASSERT_EQ(s.next_bit(), period[i % kScramblerPeriod])
          << "seed " << int{seed} << " bit " << i;
    }
  }
}

class ConvCodeSuite : public ::testing::TestWithParam<CodeRate> {};

TEST_P(ConvCodeSuite, NoiselessRoundtrip) {
  util::Rng rng(3);
  const CodeRate rate = GetParam();
  for (int trial = 0; trial < 5; ++trial) {
    Bits data = random_bits(240, rng);
    // Tail-terminate.
    for (int i = 0; i < 6; ++i) data.push_back(0);
    const Bits coded = conv_encode(data, rate);
    EXPECT_EQ(coded.size(), coded_length(data.size(), rate));
    const Bits decoded = viterbi_decode(coded, data.size(), rate);
    EXPECT_EQ(decoded, data);
  }
}

TEST_P(ConvCodeSuite, CorrectsScatteredBitErrors) {
  util::Rng rng(4);
  const CodeRate rate = GetParam();
  Bits data = random_bits(480, rng);
  for (int i = 0; i < 6; ++i) data.push_back(0);
  Bits coded = conv_encode(data, rate);
  // Flip a few well-separated coded bits (within correction ability).
  const int n_errors = rate == CodeRate::kRate1_2 ? 8 : 3;
  for (int e = 0; e < n_errors; ++e) {
    coded[static_cast<std::size_t>(e) * coded.size() / n_errors] ^= 1u;
  }
  const Bits decoded = viterbi_decode(coded, data.size(), rate);
  EXPECT_EQ(decoded, data);
}

TEST_P(ConvCodeSuite, SoftDecisionOutperformsAtModerateNoise) {
  util::Rng rng(5);
  const CodeRate rate = GetParam();
  Bits data = random_bits(960, rng);
  for (int i = 0; i < 6; ++i) data.push_back(0);
  const Bits coded = conv_encode(data, rate);

  // BPSK over AWGN at a moderate SNR.
  const double sigma = 0.45;
  std::vector<double> llr(coded.size());
  Bits hard(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    const double tx = coded[i] ? -1.0 : 1.0;
    const double y = tx + sigma * rng.gaussian();
    llr[i] = 2.0 * y / (sigma * sigma);
    hard[i] = y < 0.0 ? 1 : 0;
  }
  const Bits soft_dec = viterbi_decode_soft(llr, data.size(), rate);
  const Bits hard_dec = viterbi_decode(hard, data.size(), rate);
  int soft_err = 0, hard_err = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    soft_err += soft_dec[i] != data[i];
    hard_err += hard_dec[i] != data[i];
  }
  EXPECT_LE(soft_err, hard_err);
}

INSTANTIATE_TEST_SUITE_P(Rates, ConvCodeSuite,
                         ::testing::Values(CodeRate::kRate1_2,
                                           CodeRate::kRate2_3,
                                           CodeRate::kRate3_4));

// The push-form Viterbi decoder this library shipped before the butterfly
// rewrite, kept verbatim as the reference the rewrite must match bit for
// bit. Only the constants it reads and the depuncturing it is fed through
// are restated around it. The encoder and the depuncturer are the
// pattern-walk forms (a std::vector<bool> pattern indexed modulo its
// length for every bit) that the index-based ones must match.
namespace push_form {

constexpr unsigned kG0 = 0133;
constexpr unsigned kG1 = 0171;
constexpr int kStates = 64;

inline std::uint8_t parity7(unsigned x) {
  x &= 0x7F;
  x ^= x >> 4;
  x ^= x >> 2;
  x ^= x >> 1;
  return static_cast<std::uint8_t>(x & 1u);
}

struct Puncture {
  std::vector<bool> pattern;
  std::size_t in_period;
};

const Puncture& puncture_for(CodeRate r) {
  static const Puncture p12{{true, true}, 1};
  static const Puncture p23{{true, true, true, false}, 2};
  static const Puncture p34{{true, true, true, false, false, true}, 3};
  switch (r) {
    case CodeRate::kRate1_2:
      return p12;
    case CodeRate::kRate2_3:
      return p23;
    case CodeRate::kRate3_4:
      return p34;
  }
  return p12;
}

Bits conv_encode(const Bits& data, CodeRate rate) {
  const auto& p = puncture_for(rate);
  Bits out;
  unsigned state = 0;
  std::size_t mother_idx = 0;
  for (std::uint8_t bit : data) {
    const unsigned reg = (static_cast<unsigned>(bit & 1u) << 6) | state;
    const std::uint8_t a = parity7(reg & kG0);
    const std::uint8_t b = parity7(reg & kG1);
    if (p.pattern[mother_idx % p.pattern.size()]) out.push_back(a);
    ++mother_idx;
    if (p.pattern[mother_idx % p.pattern.size()]) out.push_back(b);
    ++mother_idx;
    state = reg >> 1;
  }
  return out;
}

// Depunctures a soft stream (LLRs) back to the full-rate 2*n_out-pair stream,
// inserting 0 (erasure) at punctured positions.
std::vector<double> depuncture(const std::vector<double>& in, std::size_t n_in,
                               CodeRate rate) {
  const auto& p = puncture_for(rate);
  std::vector<double> out(2 * n_in, 0.0);
  std::size_t src = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (p.pattern[i % p.pattern.size()]) {
      if (src < in.size()) out[i] = in[src++];
    }
  }
  return out;
}

// Flattened 64-state trellis, built once at first decode. Entry s*2+in
// holds the successor state, the output-pair index (a<<1)|b selecting one
// of the four per-step branch metrics, and the packed traceback decision.
// The trellis depends only on the mother code (g0/g1), not on the CodeRate —
// puncturing is handled entirely by depuncture(), so one table serves every
// rate.
struct Trellis {
  std::array<std::uint8_t, kStates * 2> next;
  std::array<std::uint8_t, kStates * 2> out_idx;
  std::array<std::uint8_t, kStates * 2> decision;
};

const Trellis& trellis() {
  static const Trellis t = [] {
    Trellis tr{};
    for (int s = 0; s < kStates; ++s) {
      for (int in = 0; in < 2; ++in) {
        const unsigned reg =
            (static_cast<unsigned>(in) << 6) | static_cast<unsigned>(s);
        const std::size_t i = static_cast<std::size_t>(s * 2 + in);
        tr.next[i] = static_cast<std::uint8_t>(reg >> 1);
        tr.out_idx[i] = static_cast<std::uint8_t>(
            (parity7(reg & kG0) << 1) | parity7(reg & kG1));
        // Record the predecessor state's dropped bit + input bit; the
        // predecessor is recoverable as ((next << 1) | dropped_bit) & 0x3F.
        tr.decision[i] = static_cast<std::uint8_t>(((s & 1) << 1) | in);
      }
    }
    return tr;
  }();
  return t;
}

Bits viterbi_core(const std::vector<double>& llr_full, std::size_t n_out) {
  // llr_full has 2 entries (A, B) per input bit; llr > 0 favors bit value 0.
  assert(llr_full.size() >= 2 * n_out);

  const Trellis& tr = trellis();

  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  std::vector<double> metric(kStates, kNegInf);
  metric[0] = 0.0;  // encoder starts in state 0
  std::vector<double> next_metric(kStates);
  // Survivor table: predecessor-input packed decisions.
  std::vector<std::uint8_t> decisions(n_out * kStates);

  for (std::size_t t = 0; t < n_out; ++t) {
    const double la = llr_full[2 * t];
    const double lb = llr_full[2 * t + 1];
    // Correlation metric: +llr if the coded bit is 0, -llr if it is 1. Only
    // four (a, b) output pairs exist, so compute all four branch metrics
    // once per step instead of per transition.
    const std::array<double, 4> bm = {la + lb, la - lb, -la + lb, -la - lb};
    std::fill(next_metric.begin(), next_metric.end(), kNegInf);
    std::uint8_t* dec = &decisions[t * kStates];
    for (int s = 0; s < kStates; ++s) {
      if (metric[s] == kNegInf) continue;
      for (int in = 0; in < 2; ++in) {
        const std::size_t i = static_cast<std::size_t>(s * 2 + in);
        const double m = metric[s] + bm[tr.out_idx[i]];
        const int next = tr.next[i];
        if (m > next_metric[next]) {
          next_metric[next] = m;
          dec[next] = tr.decision[i];
        }
      }
    }
    metric.swap(next_metric);
  }

  // Trace back from the best end state (frames are tail-terminated to state
  // 0 by frame.cc, but be robust to untailed use).
  int state = 0;
  double best = metric[0];
  for (int s = 1; s < kStates; ++s) {
    if (metric[s] > best) {
      best = metric[s];
      state = s;
    }
  }

  Bits out(n_out);
  for (std::size_t t = n_out; t-- > 0;) {
    const std::uint8_t d = decisions[t * kStates + state];
    const std::uint8_t in = d & 1u;
    const std::uint8_t dropped = (d >> 1) & 1u;
    out[t] = in;
    state = ((state << 1) | dropped) & (kStates - 1);
  }
  return out;
}

}  // namespace push_form

// Diff-tests `decode` (viterbi_decode_soft or one build of it) against the
// push-form reference over every rate, lengths around the 64-state word
// boundary and a full 1500-byte frame, and LLR families that stress the
// add-compare-select: noisy codewords, integer LLRs (many tied metrics),
// all-zero input, sprinkled +-inf and NaN, and magnitudes near overflow.
template <class Decode>
void expect_matches_push_form(const Decode& decode) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<std::size_t> lengths = {1, 2, 6, 7, 63, 64, 65, 300, 12006};
  enum Family { kGaussian, kInteger, kZero, kInfs, kNans, kHuge, kFamilies };
  util::Rng rng(107);
  int cases = 0;
  for (const CodeRate rate :
       {CodeRate::kRate1_2, CodeRate::kRate2_3, CodeRate::kRate3_4}) {
    for (const std::size_t n_out : lengths) {
      const int seeds = n_out > 300 ? 1 : 8;
      for (int family = 0; family < kFamilies; ++family) {
        for (int seed = 0; seed < seeds; ++seed) {
          const Bits coded = conv_encode(random_bits(n_out, rng), rate);
          std::vector<double> llr(coded.size());
          for (std::size_t i = 0; i < llr.size(); ++i) {
            const double tx = coded[i] ? -1.0 : 1.0;
            const double g = tx + 1.2 * rng.gaussian();
            switch (family) {
              case kGaussian:
                llr[i] = g;
                break;
              case kInteger:
                llr[i] = std::round(2.0 * g);
                break;
              case kZero:
                llr[i] = 0.0;
                break;
              case kInfs:
                llr[i] = rng.uniform_int(8u) == 0 ? (g < 0 ? -kInf : kInf) : g;
                break;
              case kNans:
                llr[i] = rng.uniform_int(16u) == 0
                             ? std::numeric_limits<double>::quiet_NaN()
                             : g;
                break;
              case kHuge:
                llr[i] = (g < 0 ? -1e307 : 1e307) *
                         (1.0 + static_cast<double>(rng.uniform_int(4u)));
                break;
            }
          }
          const Bits want =
              push_form::viterbi_core(push_form::depuncture(llr, n_out, rate),
                                      n_out);
          ASSERT_EQ(decode(llr, n_out, rate), want)
              << "rate " << code_rate_num(rate) << "/" << code_rate_den(rate)
              << " n_out " << n_out << " family " << family << " seed "
              << seed;
          ++cases;
        }
      }
    }
  }
  EXPECT_GT(cases, 0);
}

// The public decoder, through whichever build this process dispatched to.
TEST(ViterbiDispatch, MatchesPushFormReference) {
  expect_matches_push_form(
      [](const std::vector<double>& llr, std::size_t n_out, CodeRate rate) {
        return viterbi_decode_soft(llr, n_out, rate);
      });
}

// Each build of the trellis, called directly: a build the dispatcher does
// not pick on this host is still diff-tested whenever the CPU can run it.
class ViterbiDifferential
    : public ::testing::TestWithParam<detail::TrellisBuild> {};

TEST_P(ViterbiDifferential, MatchesPushFormReference) {
  const detail::TrellisBuild build = GetParam();
  if (!detail::trellis_build_runs_here(build)) {
    // The baseline build always runs, so only the ISA builds can skip.
    const char* isa =
        build == detail::TrellisBuild::kAvx512 ? "AVX-512F" : "AVX2";
    GTEST_SKIP() << "this CPU cannot run the "
                 << detail::trellis_build_name(build) << " trellis build (no "
                 << isa << "), so it is NOT diff-tested here";
  }
  expect_matches_push_form([build](const std::vector<double>& llr,
                                   std::size_t n_out, CodeRate rate) {
    return detail::viterbi_decode_soft_with(build, llr, n_out, rate);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Builds, ViterbiDifferential,
    ::testing::Values(detail::TrellisBuild::kBaseline,
                      detail::TrellisBuild::kAvx2,
                      detail::TrellisBuild::kAvx512),
    [](const ::testing::TestParamInfo<detail::TrellisBuild>& build) {
      return std::string(detail::trellis_build_name(build.param));
    });

// Input lengths for the encoder and depuncturer diffs: every length through
// several whole puncture periods, so each rate ends on each phase
// (including a last pair whose second or both bits are punctured), and a
// full 1500-byte frame.
std::vector<std::size_t> puncture_test_lengths() {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 1; n <= 64; ++n) lengths.push_back(n);
  lengths.push_back(12006);
  return lengths;
}

TEST(PunctureDifferential, EncoderMatchesPatternWalk) {
  util::Rng rng(108);
  for (const CodeRate rate :
       {CodeRate::kRate1_2, CodeRate::kRate2_3, CodeRate::kRate3_4}) {
    for (const std::size_t n_in : puncture_test_lengths()) {
      const Bits data = random_bits(n_in, rng);
      const Bits want = push_form::conv_encode(data, rate);
      ASSERT_EQ(conv_encode(data, rate), want)
          << "rate " << code_rate_num(rate) << "/" << code_rate_den(rate)
          << " n_in " << n_in;
      ASSERT_EQ(coded_length(n_in, rate), want.size());
    }
  }
}

TEST(PunctureDifferential, DepunctureMatchesPatternWalk) {
  // LLR vectors shorter than the coded length (a truncated stream: the
  // missing positions are erasures), exact, and longer (the excess is
  // ignored). The stream is written whole and in two pieces split at every
  // phase, as the decoder's chunks split it; `out` starts dirty.
  util::Rng rng(109);
  for (const CodeRate rate :
       {CodeRate::kRate1_2, CodeRate::kRate2_3, CodeRate::kRate3_4}) {
    for (const std::size_t n_out : puncture_test_lengths()) {
      const std::size_t n_coded = coded_length(n_out, rate);
      for (const std::size_t n_llr :
           {std::size_t{0}, n_coded / 2, n_coded - 1, n_coded, n_coded + 3}) {
        std::vector<double> llr(n_llr);
        for (double& v : llr) v = rng.gaussian();
        const std::vector<double> want = push_form::depuncture(llr, n_out, rate);
        for (const std::size_t split :
             {std::size_t{0}, std::size_t{1}, std::size_t{2}, n_out / 2,
              n_out - 1}) {
          if (split > n_out) continue;
          std::vector<double> out(2 * n_out, 5.0);
          detail::depuncture(llr, 0, split, rate, out.data());
          detail::depuncture(llr, split, n_out - split, rate,
                             out.data() + 2 * split);
          ASSERT_EQ(out, want)
              << "rate " << code_rate_num(rate) << "/" << code_rate_den(rate)
              << " n_out " << n_out << " llr " << n_llr << " split " << split;
        }
      }
    }
  }
}

TEST(ConvCode, RateValues) {
  EXPECT_DOUBLE_EQ(code_rate_value(CodeRate::kRate1_2), 0.5);
  EXPECT_DOUBLE_EQ(code_rate_value(CodeRate::kRate2_3), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(code_rate_value(CodeRate::kRate3_4), 0.75);
}

TEST(ConvCode, CodedLengthMatchesRate) {
  EXPECT_EQ(coded_length(100, CodeRate::kRate1_2), 200u);
  EXPECT_EQ(coded_length(100, CodeRate::kRate2_3), 150u);
  EXPECT_EQ(coded_length(96, CodeRate::kRate3_4), 128u);
}

struct InterleaverCase {
  std::size_t n_cbps;
  std::size_t n_bpsc;
};

class InterleaverSuite : public ::testing::TestWithParam<InterleaverCase> {};

TEST_P(InterleaverSuite, MapIsPermutation) {
  const auto [n_cbps, n_bpsc] = GetParam();
  const auto map = interleave_map(n_cbps, n_bpsc);
  std::vector<bool> hit(n_cbps, false);
  for (std::size_t j : map) {
    ASSERT_LT(j, n_cbps);
    EXPECT_FALSE(hit[j]);
    hit[j] = true;
  }
}

TEST_P(InterleaverSuite, Roundtrip) {
  const auto [n_cbps, n_bpsc] = GetParam();
  util::Rng rng(6);
  const Bits data = random_bits(3 * n_cbps, rng);
  EXPECT_EQ(old_chain::deinterleave(old_chain::interleave(data, n_cbps, n_bpsc),
                                    n_cbps, n_bpsc),
            data);
}

TEST_P(InterleaverSuite, SpreadsAdjacentBits) {
  const auto [n_cbps, n_bpsc] = GetParam();
  const auto map = interleave_map(n_cbps, n_bpsc);
  // Adjacent coded bits must land on different subcarriers.
  for (std::size_t k = 0; k + 1 < n_cbps; ++k) {
    const std::size_t sc_a = map[k] / n_bpsc;
    const std::size_t sc_b = map[k + 1] / n_bpsc;
    EXPECT_NE(sc_a, sc_b);
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, InterleaverSuite,
                         ::testing::Values(InterleaverCase{48, 1},
                                           InterleaverCase{96, 2},
                                           InterleaverCase{192, 4},
                                           InterleaverCase{288, 6}));

TEST(Interleaver, DeinterleaveMapInvertsTheMapOfItsConfig) {
  // deinterleave_map keeps one map per (n_cbps, n_bpsc). Configs
  // alternate, twice over, so a map reused under the wrong key would show.
  const std::array<InterleaverCase, 4> configs = {
      InterleaverCase{48, 1}, InterleaverCase{96, 2}, InterleaverCase{192, 4},
      InterleaverCase{288, 6}};
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& [n_cbps, n_bpsc] : configs) {
      const auto to = interleave_map(n_cbps, n_bpsc);
      const auto& from = deinterleave_map(n_cbps, n_bpsc);
      ASSERT_EQ(from.size(), n_cbps);
      for (std::size_t k = 0; k < n_cbps; ++k) {
        ASSERT_EQ(from[to[k]], k) << n_cbps << "/" << n_bpsc << " bit " << k;
      }
    }
  }
}

class ConstellationSuite : public ::testing::TestWithParam<Modulation> {};

TEST_P(ConstellationSuite, UnitAveragePower) {
  const auto& pts = constellation_points(GetParam());
  double p = 0.0;
  for (const auto& s : pts) p += std::norm(s);
  EXPECT_NEAR(p / static_cast<double>(pts.size()), 1.0, 1e-12);
}

TEST_P(ConstellationSuite, HardRoundtrip) {
  util::Rng rng(7);
  const Modulation m = GetParam();
  const Bits bits = random_bits(bits_per_symbol(m) * 100, rng);
  EXPECT_EQ(demap_hard(map_bits(bits, m), m), bits);
}

TEST_P(ConstellationSuite, GrayNeighborsDifferInOneBit) {
  const Modulation m = GetParam();
  if (m == Modulation::kBpsk) GTEST_SKIP();
  const auto& pts = constellation_points(m);
  // For each point, its nearest neighbors must differ in exactly 1 bit.
  for (std::size_t a = 0; a < pts.size(); ++a) {
    double min_d = 1e9;
    for (std::size_t b = 0; b < pts.size(); ++b) {
      if (a != b) min_d = std::min(min_d, std::abs(pts[a] - pts[b]));
    }
    for (std::size_t b = 0; b < pts.size(); ++b) {
      if (a == b || std::abs(pts[a] - pts[b]) > min_d * 1.001) continue;
      EXPECT_EQ(__builtin_popcountll(a ^ b), 1)
          << "points " << a << " and " << b;
    }
  }
}

TEST_P(ConstellationSuite, SoftLlrSignMatchesBits) {
  util::Rng rng(8);
  const Modulation m = GetParam();
  const Bits bits = random_bits(bits_per_symbol(m) * 50, rng);
  const auto syms = map_bits(bits, m);
  const auto llr = demap_soft(syms, {0.01}, m);
  ASSERT_EQ(llr.size(), bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    // Positive LLR means bit 0.
    EXPECT_EQ(bits[i] == 0, llr[i] > 0.0) << i;
  }
}

TEST_P(ConstellationSuite, BerDecreasesWithSnr) {
  const Modulation m = GetParam();
  double prev = 0.6;
  for (double snr_db = -5; snr_db <= 30; snr_db += 5) {
    const double ber = ber_awgn(m, util::from_db(snr_db));
    EXPECT_LE(ber, prev + 1e-12);
    prev = ber;
  }
  EXPECT_LT(ber_awgn(m, util::from_db(30)), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Mods, ConstellationSuite,
                         ::testing::Values(Modulation::kBpsk,
                                           Modulation::kQpsk,
                                           Modulation::kQam16,
                                           Modulation::kQam64));

TEST(Mcs, TableIsOrdered) {
  const auto& t = mcs_table();
  ASSERT_EQ(t.size(), 8u);
  for (std::size_t i = 1; i < t.size(); ++i) {
    EXPECT_GT(t[i].bitrate_mbps, t[i - 1].bitrate_mbps);
    EXPECT_GT(t[i].min_esnr_db, t[i - 1].min_esnr_db);
  }
  // The paper quotes "1500-byte packet at 18 Mb/s": must exist in the table.
  EXPECT_DOUBLE_EQ(t[5].bitrate_mbps, 18.0);
}

TEST(Mcs, DbpsConsistent) {
  for (const auto& m : mcs_table()) {
    const double expected = static_cast<double>(m.n_cbps) *
                            code_rate_value(m.code_rate);
    EXPECT_DOUBLE_EQ(static_cast<double>(m.n_dbps), expected);
    EXPECT_EQ(m.n_cbps, 48 * bits_per_symbol(m.modulation));
  }
}

TEST(Mcs, SelectRespectsThreshold) {
  EXPECT_EQ(select_mcs(3.0), nullptr);
  ASSERT_NE(select_mcs(4.0), nullptr);
  EXPECT_EQ(select_mcs(4.0)->index, 0);
  EXPECT_EQ(select_mcs(16.0)->index, 5);
  EXPECT_EQ(select_mcs(50.0)->index, 7);
}

TEST(Mcs, PerMonotoneInEsnr) {
  const Mcs& m = mcs_by_index(4);
  double prev = 1.0;
  for (double e = 0; e < 30; e += 1.0) {
    const double per = packet_error_rate(m, e, 1500);
    EXPECT_LE(per, prev + 1e-12);
    prev = per;
  }
}

TEST(Mcs, PerSmallAtThreshold) {
  for (const auto& m : mcs_table()) {
    const double per = packet_error_rate(m, m.min_esnr_db, 1500);
    EXPECT_LT(per, 0.02);
    EXPECT_GT(per, 1e-4);
  }
}

TEST(Mcs, PerScalesWithLength) {
  const Mcs& m = mcs_by_index(3);
  const double e = m.min_esnr_db - 1.0;
  const double p_short = packet_error_rate(m, e, 300);
  const double p_long = packet_error_rate(m, e, 3000);
  EXPECT_LT(p_short, p_long);
}

TEST(Mcs, DataSymbolsCount) {
  // 1500 B at 18 Mb/s (n_dbps 144): (12000+22)/144 -> 84 symbols.
  EXPECT_EQ(n_data_symbols(mcs_by_index(5), 1500, 1), 84u);
  // Three streams divide the symbol count.
  EXPECT_EQ(n_data_symbols(mcs_by_index(5), 1500, 3), 28u);
}

TEST(Esnr, FlatChannelIsIdentity) {
  // All subcarriers at the same SNR: ESNR equals that SNR.
  const std::vector<double> flat(48, util::from_db(15.0));
  for (auto m : {Modulation::kBpsk, Modulation::kQam16}) {
    EXPECT_NEAR(util::to_db(effective_snr(flat, m)), 15.0, 0.05);
  }
}

TEST(Esnr, FadedSubcarrierDragsDown) {
  std::vector<double> snr(48, util::from_db(20.0));
  snr[7] = util::from_db(0.0);  // one dead subcarrier
  const double esnr_db =
      util::to_db(effective_snr(snr, Modulation::kQpsk));
  EXPECT_LT(esnr_db, 19.0);   // well below the mean SNR in dB
  EXPECT_GT(esnr_db, 5.0);
}

TEST(Esnr, InverseBerInvertsForward) {
  for (auto m : {Modulation::kBpsk, Modulation::kQpsk, Modulation::kQam64}) {
    for (double snr_db : {3.0, 10.0, 20.0}) {
      const double snr = util::from_db(snr_db);
      const double ber = ber_awgn(m, snr);
      if (ber < 1e-12) continue;
      EXPECT_NEAR(util::to_db(inverse_ber(m, ber)), snr_db, 0.01);
    }
  }
}

TEST(Esnr, SelectionPicksFastestSustainable) {
  const std::vector<double> good(48, util::from_db(30.0));
  const Mcs* m = select_mcs_esnr(good);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->index, 7);

  const std::vector<double> weak(48, util::from_db(5.0));
  const Mcs* w = select_mcs_esnr(weak);
  ASSERT_NE(w, nullptr);
  EXPECT_LE(w->index, 1);

  const std::vector<double> dead(48, util::from_db(-5.0));
  EXPECT_EQ(select_mcs_esnr(dead), nullptr);
}

TEST(Esnr, MarginLowersSelection) {
  const std::vector<double> snr(48, util::from_db(12.5));
  const Mcs* no_margin = select_mcs_esnr(snr, 0.0);
  const Mcs* with_margin = select_mcs_esnr(snr, 3.0);
  ASSERT_NE(no_margin, nullptr);
  ASSERT_NE(with_margin, nullptr);
  EXPECT_GT(no_margin->index, with_margin->index);
}

TEST(FrameHeader, SerializeParseRoundtrip) {
  FrameHeader h;
  h.type = FrameType::kAckHeader;
  h.src = 0x1234;
  h.dst = 0x5678;
  h.length_bytes = 1500;
  h.mcs_index = 5;
  h.n_streams = 2;
  h.n_antennas = 3;
  h.duration_us = 900;
  h.seq = 42;
  const auto bytes = h.serialize();
  EXPECT_EQ(bytes.size(), FrameHeader::kWireSize);
  const auto parsed = FrameHeader::parse(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->src, h.src);
  EXPECT_EQ(parsed->dst, h.dst);
  EXPECT_EQ(parsed->length_bytes, h.length_bytes);
  EXPECT_EQ(parsed->mcs_index, h.mcs_index);
  EXPECT_EQ(parsed->n_streams, h.n_streams);
  EXPECT_EQ(parsed->n_antennas, h.n_antennas);
  EXPECT_EQ(parsed->duration_us, h.duration_us);
  EXPECT_EQ(parsed->seq, h.seq);
  EXPECT_EQ(static_cast<int>(parsed->type), static_cast<int>(h.type));
}

TEST(FrameHeader, CorruptionRejected) {
  FrameHeader h;
  auto bytes = h.serialize();
  bytes[3] ^= 0x40;
  EXPECT_FALSE(FrameHeader::parse(bytes).has_value());
}

TEST(BitsBytes, Roundtrip) {
  util::Rng rng(9);
  std::vector<std::uint8_t> bytes(64);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform_int(256u));
  EXPECT_EQ(old_chain::bits_to_bytes(old_chain::bytes_to_bits(bytes)), bytes);
}

class PayloadCodecSuite : public ::testing::TestWithParam<int> {};

TEST_P(PayloadCodecSuite, NoiselessRoundtrip) {
  util::Rng rng(10 + GetParam());
  const Mcs& mcs = mcs_by_index(GetParam());
  std::vector<std::uint8_t> payload(311);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_int(256u));

  const auto symbols = encode_payload(payload, mcs);
  EXPECT_EQ(symbols.size(), encoded_symbol_count(payload.size(), mcs) * 48);
  const auto decoded =
      decode_payload(symbols, {1e-3}, payload.size(), mcs);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, payload);
}

TEST_P(PayloadCodecSuite, SurvivesModerateNoise) {
  util::Rng rng(20 + GetParam());
  const Mcs& mcs = mcs_by_index(GetParam());
  std::vector<std::uint8_t> payload(200);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_int(256u));

  auto symbols = encode_payload(payload, mcs);
  // SNR comfortably above the MCS threshold.
  const double snr = util::from_db(mcs.min_esnr_db + 6.0);
  const double nv = 1.0 / snr;
  for (auto& s : symbols) s += rng.cgaussian(nv);
  const auto decoded = decode_payload(symbols, {nv}, payload.size(), mcs);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, payload);
}

TEST_P(PayloadCodecSuite, CrcCatchesHeavyNoise) {
  util::Rng rng(30 + GetParam());
  const Mcs& mcs = mcs_by_index(GetParam());
  std::vector<std::uint8_t> payload(200);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_int(256u));
  auto symbols = encode_payload(payload, mcs);
  // Hopeless SNR: decode must fail cleanly (nullopt), not return garbage.
  for (auto& s : symbols) s += rng.cgaussian(20.0);
  const auto decoded = decode_payload(symbols, {20.0}, payload.size(), mcs);
  if (decoded.has_value()) {
    // Astronomically unlikely; if CRC passes the data must be right.
    EXPECT_EQ(*decoded, payload);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(AllMcs, PayloadCodecSuite,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 6, 7));

// --- Randomized compose-invert properties --------------------------------
//
// The stages are self-inverse individually; these properties pin the
// *composition* (and its edge cases) under random payloads and seeds — the
// path the full-PHY fidelity scorer trusts frame by frame.

TEST(CodecProperties, ScramblerComposeInvertRandomLengths) {
  util::Rng rng(101);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = rng.uniform_int(400u);  // includes 0
    const Bits data = random_bits(n, rng);
    EXPECT_EQ(old_chain::descramble(old_chain::scramble(data)), data)
        << "length " << n;
  }
}

TEST(CodecProperties, ConvCodeComposeInvertAllRatesRandomLengths) {
  // Tail truncation: punctured rates drop coded bits by a cyclic pattern;
  // lengths NOT aligned to the puncturing period exercise the truncated
  // tail of the pattern, where a decoder that mishandles the reinserted
  // zero-confidence positions corrupts the last few data bits.
  util::Rng rng(102);
  for (const CodeRate rate :
       {CodeRate::kRate1_2, CodeRate::kRate2_3, CodeRate::kRate3_4}) {
    for (int trial = 0; trial < 20; ++trial) {
      const std::size_t n_data = 1 + rng.uniform_int(80u);
      Bits data = random_bits(n_data, rng);
      // Proper trellis termination, as frame.cc does.
      for (int i = 0; i < 6; ++i) data.push_back(0);
      const Bits coded = conv_encode(data, rate);
      EXPECT_EQ(coded.size(), coded_length(data.size(), rate));
      const Bits decoded = viterbi_decode(coded, data.size(), rate);
      EXPECT_EQ(decoded, data)
          << "rate " << code_rate_num(rate) << "/" << code_rate_den(rate)
          << " n_data " << n_data;
    }
  }
}

TEST(CodecProperties, InterleaverComposeInvertAllMcs) {
  util::Rng rng(103);
  for (const Mcs& mcs : mcs_table()) {
    const std::size_t bps = bits_per_symbol(mcs.modulation);
    for (std::size_t n_sym : {1u, 3u, 7u}) {
      const Bits data = random_bits(n_sym * mcs.n_cbps, rng);
      const Bits inter = old_chain::interleave(data, mcs.n_cbps, bps);
      EXPECT_EQ(old_chain::deinterleave(inter, mcs.n_cbps, bps), data)
          << mcs.name() << " x" << n_sym;
    }
  }
}

TEST(CodecProperties, Crc32AppendCheckRandomPayloads) {
  util::Rng rng(104);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = rng.uniform_int(600u);
    std::vector<std::uint8_t> payload(n);
    for (auto& b : payload) {
      b = static_cast<std::uint8_t>(rng.uniform_int(256u));
    }
    const std::uint32_t fcs = crc32(payload);
    EXPECT_EQ(crc32(payload), fcs);  // pure function of the bytes
    if (n > 0) {
      auto corrupted = payload;
      corrupted[rng.uniform_int(static_cast<std::uint32_t>(n))] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_int(8u));
      EXPECT_NE(crc32(corrupted), fcs);
    }
  }
}

TEST(CodecProperties, PayloadRoundtripRandomLengthsAndSeeds) {
  // Whole-chain compose-invert: scramble ∘ conv ∘ interleave ∘ map and its
  // inverse, for random payload lengths across several seeds.
  util::Rng rng(105);
  for (int trial = 0; trial < 24; ++trial) {
    const Mcs& mcs = mcs_by_index(static_cast<int>(rng.uniform_int(8u)));
    const std::size_t n = rng.uniform_int(200u);  // includes 0
    std::vector<std::uint8_t> payload(n);
    for (auto& b : payload) {
      b = static_cast<std::uint8_t>(rng.uniform_int(256u));
    }
    const auto symbols = encode_payload(payload, mcs);
    const auto decoded = decode_payload(symbols, {1e-3}, n, mcs);
    ASSERT_TRUE(decoded.has_value()) << mcs.name() << " length " << n;
    EXPECT_EQ(*decoded, payload);
  }
}

TEST(CodecProperties, ZeroLengthPayloadRoundtripsEveryMcs) {
  // The degenerate frame: service + CRC-32 + tail only. encode must pad it
  // to a whole symbol and decode must verify the CRC of an empty payload.
  for (const Mcs& mcs : mcs_table()) {
    const auto symbols = encode_payload({}, mcs);
    EXPECT_EQ(symbols.size(), encoded_symbol_count(0, mcs) * 48);
    const auto decoded = decode_payload(symbols, {1e-3}, 0, mcs);
    ASSERT_TRUE(decoded.has_value()) << mcs.name();
    EXPECT_TRUE(decoded->empty());
  }
}

TEST(CodecProperties, TailBoundaryLengthsRoundtrip) {
  // Lengths where the 6 tail bits straddle the final-symbol pad boundary:
  // for each MCS, the payload sizes that exactly fill a symbol, and one
  // byte to either side (the truncated-tail edge of encode_payload's
  // forced-zero tail handling).
  util::Rng rng(106);
  for (const Mcs& mcs : mcs_table()) {
    // 8*(L+4) + 16 + 6 bits must land on a symbol boundary: find the
    // smallest L >= 1 with (8L + 54) % n_dbps == 0 (may not exist for all
    // tables; then the loop just tests the probe lengths).
    std::vector<std::size_t> lengths = {1, 2};
    for (std::size_t L = 1; L < 1 + 2 * mcs.n_dbps; ++L) {
      if ((8 * L + 54) % mcs.n_dbps == 0) {
        if (L >= 2) lengths.push_back(L - 1);
        lengths.push_back(L);
        lengths.push_back(L + 1);
        break;
      }
    }
    for (const std::size_t L : lengths) {
      std::vector<std::uint8_t> payload(L);
      for (auto& b : payload) {
        b = static_cast<std::uint8_t>(rng.uniform_int(256u));
      }
      const auto symbols = encode_payload(payload, mcs);
      const auto decoded = decode_payload(symbols, {1e-3}, L, mcs);
      ASSERT_TRUE(decoded.has_value()) << mcs.name() << " length " << L;
      EXPECT_EQ(*decoded, payload);
    }
  }
}

// --- Demappers vs a per-symbol max-log reference ----------------------

// Symbol counts exercising the hard demap's chunking tails: below one
// chunk, one short of / exactly / one past the 96-lane chunk, and
// multi-chunk.
const std::vector<std::size_t> kDemapSizes = {1, 5, 95, 96, 97, 200};

// Checks demap_hard and demap_soft against one symbol at a time with
// distances from std::norm. Hard: the first nearest point's bits, MSB
// first. Soft: max-log LLR_b = (min_{bit=1} d - min_{bit=0} d) / nv, with
// demap_soft's noise-variance rule (empty -> 1.0, the last entry reused,
// floored at 1e-12). Soft LLRs are compared with memcmp, so NaN outputs
// must match bit for bit too.
void expect_demap_matches_reference(const std::vector<cdouble>& syms,
                                    const std::vector<double>& nv,
                                    phy::Modulation m,
                                    const std::string& label) {
  const auto& pts = phy::constellation_points(m);
  const std::size_t bps = phy::bits_per_symbol(m);
  phy::Bits want_hard;
  std::vector<double> want_soft;
  for (std::size_t s = 0; s < syms.size(); ++s) {
    std::vector<double> d(pts.size());
    for (std::size_t w = 0; w < pts.size(); ++w) {
      d[w] = std::norm(syms[s] - pts[w]);
    }
    const std::size_t best = static_cast<std::size_t>(
        std::min_element(d.begin(), d.end()) - d.begin());
    for (std::size_t b = bps; b-- > 0;) {
      want_hard.push_back(static_cast<std::uint8_t>((best >> b) & 1u));
    }
    const double nvs =
        nv.empty() ? 1.0 : std::max(nv[std::min(s, nv.size() - 1)], 1e-12);
    for (std::size_t b = bps; b-- > 0;) {
      double d0 = std::numeric_limits<double>::infinity();
      double d1 = std::numeric_limits<double>::infinity();
      for (std::size_t w = 0; w < pts.size(); ++w) {
        double& dmin = ((w >> b) & 1u) ? d1 : d0;
        dmin = std::min(dmin, d[w]);
      }
      want_soft.push_back((d1 - d0) / nvs);
    }
  }

  EXPECT_EQ(phy::demap_hard(syms, m), want_hard)
      << phy::modulation_name(m) << " " << label;
  const auto soft = phy::demap_soft(syms, nv, m);
  ASSERT_EQ(soft.size(), want_soft.size());
  EXPECT_EQ(std::memcmp(soft.data(), want_soft.data(),
                        soft.size() * sizeof(double)),
            0)
      << phy::modulation_name(m) << " " << label;
}

const std::vector<phy::Modulation> kModulations = {
    phy::Modulation::kBpsk, phy::Modulation::kQpsk, phy::Modulation::kQam16,
    phy::Modulation::kQam64};

TEST(SimdDemap, HardAndSoftMatchPerSymbolMaxLogReference) {
  for (phy::Modulation m : kModulations) {
    const std::size_t bps = phy::bits_per_symbol(m);
    for (std::size_t n_syms : kDemapSizes) {
      util::Rng rng(40 + n_syms + bps);
      std::vector<cdouble> syms(n_syms);
      std::vector<double> nv(n_syms);
      for (std::size_t i = 0; i < n_syms; ++i) {
        syms[i] = rng.cgaussian();
        nv[i] = 0.01 + 0.5 * std::norm(rng.cgaussian());
      }
      expect_demap_matches_reference(syms, nv, m,
                                     "n=" + std::to_string(n_syms));
    }
  }
}

// Symbols where a per-axis demapper could part from the all-points scan:
// exactly on constellation points, on decision boundaries (ties between
// neighbouring levels), non-finite or overflowing components, and the
// noise-variance edge rules.
TEST(SimdDemap, EdgeSymbolsMatchPerSymbolMaxLogReference) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  for (phy::Modulation m : kModulations) {
    const auto& pts = phy::constellation_points(m);
    // The unit step of the grid: the magnitude of the innermost level.
    double unit = kInf;
    for (const cdouble& p : pts) unit = std::min(unit, std::abs(p.real()));

    std::vector<cdouble> syms(pts.begin(), pts.end());
    std::vector<double> axis = {0.0};
    for (int k = 1; k <= 4; ++k) {
      axis.push_back(2.0 * k * unit);
      axis.push_back(-2.0 * k * unit);
    }
    for (double re : axis) {
      for (double im : axis) syms.emplace_back(re, im);
      syms.emplace_back(re, pts[0].imag());
      syms.emplace_back(pts[0].real(), re);
    }
    for (double bad : {kNan, kInf, -kInf, 1e200, -1e200, 1.3e154}) {
      syms.emplace_back(bad, 0.3 * unit);
      syms.emplace_back(-0.7 * unit, bad);
      syms.emplace_back(bad, 0.0);
      syms.emplace_back(0.0, bad);
      for (double other : {kNan, kInf, -kInf, 1e200}) {
        syms.emplace_back(bad, other);
      }
    }

    util::Rng rng(50 + pts.size());
    std::vector<double> nv(syms.size());
    for (double& v : nv) v = 0.01 + 0.5 * std::norm(rng.cgaussian());
    nv[1] = 0.0;  // floored at 1e-12
    expect_demap_matches_reference(syms, nv, m, "edge symbols");
    expect_demap_matches_reference(syms, {}, m, "empty noise_var");
    expect_demap_matches_reference(syms, {0.25, 2.0}, m, "short noise_var");
  }
}

// Random symbols, then the edge symbols of
// SimdDemap.EdgeSymbolsMatchPerSymbolMaxLogReference for modulation m.
std::vector<cdouble> demap_test_symbols(Modulation m, util::Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const auto& pts = constellation_points(m);
  double unit = kInf;
  for (const cdouble& p : pts) unit = std::min(unit, std::abs(p.real()));
  std::vector<cdouble> syms;
  for (int i = 0; i < 100; ++i) syms.push_back(rng.cgaussian());
  syms.insert(syms.end(), pts.begin(), pts.end());
  std::vector<double> axis = {0.0};
  for (int k = 1; k <= 4; ++k) {
    axis.push_back(2.0 * k * unit);
    axis.push_back(-2.0 * k * unit);
  }
  for (double re : axis) {
    for (double im : axis) syms.emplace_back(re, im);
    syms.emplace_back(re, pts[0].imag());
    syms.emplace_back(pts[0].real(), re);
  }
  for (double bad : {kNan, kInf, -kInf, 1e200, -1e200, 1.3e154}) {
    syms.emplace_back(bad, 0.3 * unit);
    syms.emplace_back(-0.7 * unit, bad);
    syms.emplace_back(bad, 0.0);
    syms.emplace_back(0.0, bad);
    for (double other : {kNan, kInf, -kInf, 1e200}) {
      syms.emplace_back(bad, other);
    }
  }
  return syms;
}

// The receive path's fused pass against the two stages it replaced: every
// MCS, random and edge symbols, whole OFDM symbols plus a ragged remainder
// the fused form must leave alone, and the noise-variance edge rules.
// `got` starts dirty, so every slot must be written.
TEST(FusedDemap, MatchesDeinterleaveOfDemapSoft) {
  for (const Mcs& mcs : mcs_table()) {
    const std::size_t bps = bits_per_symbol(mcs.modulation);
    util::Rng rng(60 + static_cast<std::uint64_t>(mcs.index));
    std::vector<cdouble> syms = demap_test_symbols(mcs.modulation, rng);
    for (int i = 0; i < 7; ++i) syms.push_back(rng.cgaussian());
    std::vector<double> nv(syms.size());
    for (double& v : nv) v = 0.01 + 0.5 * std::norm(rng.cgaussian());
    nv[1] = 0.0;  // floored at 1e-12
    const std::size_t n_out = syms.size() * bps / mcs.n_cbps * mcs.n_cbps;
    ASSERT_GT(n_out, 0u);
    for (const auto& noise : {nv, std::vector<double>{},
                              std::vector<double>{0.25, 2.0}}) {
      std::vector<double> want = demap_soft(syms, noise, mcs.modulation);
      want.resize(n_out);
      want = old_chain::deinterleave_soft(want, mcs.n_cbps, bps);
      std::vector<double> got(n_out, 7.0);
      demap_soft_deinterleaved(syms, noise, mcs.modulation, mcs.n_cbps, got);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), n_out * sizeof(double)),
                0)
          << mcs.name() << " noise_var entries " << noise.size();
    }
  }
}

// Payload lengths 0-64 bytes and a full 1500-byte frame.
std::vector<std::size_t> payload_test_lengths() {
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  lengths.push_back(1500);
  return lengths;
}

std::vector<std::uint8_t> random_payload(std::size_t n, util::Rng& rng) {
  std::vector<std::uint8_t> payload(n);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform_int(256u));
  return payload;
}

// Pins the transmit bit order (bytes MSB first, scrambler phase, tail,
// pad, puncturing, interleaving, Gray words) against the old chain.
TEST(EncodePayload, MatchesBitByBitChain) {
  util::Rng rng(110);
  for (const Mcs& mcs : mcs_table()) {
    for (const std::size_t n : payload_test_lengths()) {
      const auto payload = random_payload(n, rng);
      const auto want = old_chain::encode_payload(payload, mcs);
      const auto got = encode_payload(payload, mcs);
      ASSERT_EQ(got.size(), want.size()) << mcs.name() << " length " << n;
      ASSERT_EQ(std::memcmp(got.data(), want.data(),
                            got.size() * sizeof(cdouble)),
                0)
          << mcs.name() << " length " << n;
    }
  }
}

// The fused tail gives the old descramble / pack / CRC verdict on the
// error-free data field, on every one-bit corruption of the payload and FCS
// (for 1500 bytes: of the first and last 64 bytes), on flips of the
// service, tail and pad bits it never reads, and on a data field one bit
// too short.
TEST(UnpackPayload, AcceptsExactlyWhatTheOldTailAccepts) {
  util::Rng rng(111);
  for (const int mcs_index : {0, 4, 7}) {
    const Mcs& mcs = mcs_by_index(mcs_index);
    for (const std::size_t n : payload_test_lengths()) {
      const auto payload = random_payload(n, rng);
      const Bits field = old_chain::scrambled_data_field(payload, mcs);
      const auto expect_same_verdict = [&](const Bits& bits,
                                           const std::string& what) -> bool {
        const auto want = old_chain::unpack_payload(bits, n);
        EXPECT_EQ(detail::unpack_payload(bits, n), want)
            << mcs.name() << " length " << n << " " << what;
        return want.has_value();
      };
      ASSERT_TRUE(expect_same_verdict(field, "clean"));
      const std::size_t body_end = 16 + 8 * (n + 4);
      for (std::size_t i = 0; i < field.size(); ++i) {
        const bool in_body = i >= 16 && i < body_end;
        if (in_body && i >= 16 + 8 * 64 && i < body_end - 8 * 64) continue;
        Bits flipped = field;
        flipped[i] ^= 1u;
        EXPECT_EQ(expect_same_verdict(flipped, "bit " + std::to_string(i)),
                  !in_body);
      }
      const Bits cut(field.begin(),
                     field.begin() + static_cast<long>(body_end - 1));
      EXPECT_FALSE(expect_same_verdict(cut, "cut"));
    }
  }
}

}  // namespace
}  // namespace nplus::phy
