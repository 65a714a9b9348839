#include "phy/conv_code.h"

#include <array>
#include <cassert>
#include <limits>
#include <utility>

namespace nplus::phy {

namespace {

constexpr unsigned kG0 = 0133;  // octal, 7 taps
constexpr unsigned kG1 = 0171;
constexpr int kK = 7;
constexpr int kStates = 1 << (kK - 1);  // 64

// Parity of the lowest 7 bits.
constexpr std::uint8_t parity7(unsigned x) {
  x &= 0x7F;
  x ^= x >> 4;
  x ^= x >> 2;
  x ^= x >> 1;
  return static_cast<std::uint8_t>(x & 1u);
}

// Puncturing patterns over the rate-1/2 output pairs (A = g0 bit, B = g1
// bit). Pattern entries: true = transmitted, false = punctured.
// Rate 2/3: period 2 input bits -> pairs A1 B1 A2 (B2 punctured).
// Rate 3/4: period 3 input bits -> A1 B1 A2 B3 (B2, A3 punctured).
struct Puncture {
  std::vector<bool> pattern;  // over the serialized A,B stream
  std::size_t in_period;      // input bits per period
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

}  // namespace

int code_rate_num(CodeRate r) {
  switch (r) {
    case CodeRate::kRate1_2:
      return 1;
    case CodeRate::kRate2_3:
      return 2;
    case CodeRate::kRate3_4:
      return 3;
  }
  return 1;
}

int code_rate_den(CodeRate r) {
  switch (r) {
    case CodeRate::kRate1_2:
      return 2;
    case CodeRate::kRate2_3:
      return 3;
    case CodeRate::kRate3_4:
      return 4;
  }
  return 2;
}

double code_rate_value(CodeRate r) {
  return static_cast<double>(code_rate_num(r)) / code_rate_den(r);
}

std::size_t coded_length(std::size_t n_in, CodeRate rate) {
  const auto& p = puncture_for(rate);
  // Mother-code output length 2*n_in, walked against the puncture pattern.
  std::size_t kept = 0;
  const std::size_t pattern_len = p.pattern.size();
  const std::size_t total = 2 * n_in;
  const std::size_t full = total / pattern_len;
  std::size_t kept_per_period = 0;
  for (bool b : p.pattern) kept_per_period += b ? 1u : 0u;
  kept = full * kept_per_period;
  for (std::size_t i = full * pattern_len; i < total; ++i) {
    if (p.pattern[i % pattern_len]) ++kept;
  }
  return kept;
}

Bits conv_encode(const Bits& data, CodeRate rate) {
  const auto& p = puncture_for(rate);
  Bits out;
  out.reserve(coded_length(data.size(), rate));
  unsigned state = 0;  // most recent bit in the LSB of the shifted-in side
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

namespace {

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

// Branch-metric selector per butterfly, a compile-time table. The trellis
// depends only on the mother code (g0/g1), not on the CodeRate: puncturing
// is handled entirely by depuncture(), so one table serves every rate.
//
// Butterfly k joins the predecessor pair 2k, 2k+1 to the successor pair k
// (input 0) and k+32 (input 1). Both generators tap the input bit (bit 6
// of the register) and the oldest bit (bit 0, the predecessor's parity), so
// flipping either one flips both coded bits. The four edges therefore carry
// only two output pairs, (a, b) and its complement, and the correlation
// metric of a complement is the exact negation of the original. sel[k] holds
// the (a << 1) | b output pair of the edge 2k -> k.
constexpr std::array<std::uint8_t, kStates / 2> butterfly_sel() {
  std::array<std::uint8_t, kStates / 2> sel{};
  for (unsigned k = 0; k < kStates / 2; ++k) {
    const unsigned reg = 2 * k;  // input 0, predecessor state 2k
    sel[k] = static_cast<std::uint8_t>((parity7(reg & kG0) << 1) |
                                       parity7(reg & kG1));
  }
  return sel;
}

Bits viterbi_core(const std::vector<double>& llr_full, std::size_t n_out) {
  // llr_full has 2 entries (A, B) per input bit; llr > 0 favors bit value 0.
  assert(llr_full.size() >= 2 * n_out);

  static constexpr std::array<std::uint8_t, kStates / 2> sel =
      butterfly_sel();

  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  std::array<double, kStates> buf_a;
  std::array<double, kStates> buf_b;
  double* metric = buf_a.data();
  double* next_metric = buf_b.data();
  buf_a.fill(kNegInf);
  metric[0] = 0.0;  // encoder starts in state 0
  // Survivors, one bit per state per step: bit n of step t is set iff state
  // n was reached from its odd predecessor. Every word is written before it
  // is read, so the reused buffer needs no clearing.
  static thread_local std::vector<std::uint64_t> survivors;
  if (survivors.size() < n_out) survivors.resize(n_out);

  for (std::size_t t = 0; t < n_out; ++t) {
    const double la = llr_full[2 * t];
    const double lb = llr_full[2 * t + 1];
    // Correlation metric: +llr if the coded bit is 0, -llr if it is 1,
    // indexed by the (a, b) output pair. bm[p ^ 3] == -bm[p] exactly.
    const std::array<double, 4> bm = {la + lb, la - lb, -la + lb, -la - lb};
    std::uint64_t dec = 0;
    const auto butterfly = [&]<std::size_t k>() {
      const double e = metric[2 * k];
      const double o = metric[2 * k + 1];
      const double b = bm[sel[k]];
      // Add-compare-select. `a` is the even candidate unless it is -inf or
      // NaN; the odd one wins only if strictly greater. So ties go to the
      // even predecessor, a NaN candidate is never kept, and an unreached
      // predecessor (metric -inf) never wins.
      const double a0 = e + b > kNegInf ? e + b : kNegInf;
      const bool d0 = o - b > a0;
      next_metric[k] = d0 ? o - b : a0;
      const double a1 = e - b > kNegInf ? e - b : kNegInf;
      const bool d1 = o + b > a1;
      next_metric[k + kStates / 2] = d1 ? o + b : a1;
      dec |= (static_cast<std::uint64_t>(d0) << k) |
             (static_cast<std::uint64_t>(d1) << (k + kStates / 2));
    };
    // All 32 butterflies, unrolled at compile time so that every sel[k]
    // and every shift is a constant.
    [&]<std::size_t... k>(std::index_sequence<k...>) {
      (butterfly.template operator()<k>(), ...);
    }(std::make_index_sequence<kStates / 2>{});
    survivors[t] = dec;
    std::swap(metric, next_metric);
  }

  // Trace back from the best end state (frames are tail-terminated to state
  // 0 by frame.cc, but be robust to untailed use).
  unsigned state = 0;
  double best = metric[0];
  for (unsigned s = 1; s < kStates; ++s) {
    if (metric[s] > best) {
      best = metric[s];
      state = s;
    }
  }

  // The input bit that entered `state` is its top bit; its predecessor
  // shifts that out and the survivor bit in as the oldest bit.
  Bits out(n_out);
  for (std::size_t t = n_out; t-- > 0;) {
    out[t] = static_cast<std::uint8_t>(state >> (kK - 2));
    const unsigned odd = static_cast<unsigned>((survivors[t] >> state) & 1u);
    state = ((state << 1) | odd) & (kStates - 1);
  }
  return out;
}

}  // namespace

Bits viterbi_decode(const Bits& coded, std::size_t n_out, CodeRate rate) {
  std::vector<double> llr(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) {
    llr[i] = coded[i] ? -1.0 : 1.0;
  }
  return viterbi_decode_soft(llr, n_out, rate);
}

Bits viterbi_decode_soft(const std::vector<double>& llr, std::size_t n_out,
                         CodeRate rate) {
  const std::vector<double> full = depuncture(llr, n_out, rate);
  return viterbi_core(full, n_out);
}

}  // namespace nplus::phy
