#include "phy/frame.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "phy/constellation.h"
#include "phy/conv_code.h"
#include "phy/crc.h"
#include "phy/interleaver.h"

namespace nplus::phy {

std::vector<std::uint8_t> FrameHeader::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(kWireSize);
  auto push16 = [&out](std::uint16_t v) {
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v & 0xFF));
  };
  out.push_back(static_cast<std::uint8_t>(type));
  push16(src);
  push16(dst);
  push16(length_bytes);
  out.push_back(mcs_index);
  out.push_back(n_streams);
  out.push_back(n_antennas);
  push16(duration_us);
  push16(seq);
  out.push_back(crc8(out));
  assert(out.size() == kWireSize);
  return out;
}

std::optional<FrameHeader> FrameHeader::parse(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.size() != kWireSize) return std::nullopt;
  std::vector<std::uint8_t> body(bytes.begin(), bytes.end() - 1);
  if (crc8(body) != bytes.back()) return std::nullopt;
  auto get16 = [&bytes](std::size_t i) {
    return static_cast<std::uint16_t>((bytes[i] << 8) | bytes[i + 1]);
  };
  FrameHeader h;
  h.type = static_cast<FrameType>(bytes[0]);
  h.src = get16(1);
  h.dst = get16(3);
  h.length_bytes = get16(5);
  h.mcs_index = bytes[7];
  h.n_streams = bytes[8];
  h.n_antennas = bytes[9];
  h.duration_us = get16(10);
  h.seq = get16(12);
  return h;
}

namespace {

// The scrambler sequence at the 802.11a seed, packed MSB first: entry q
// holds stream bits 8q .. 8q+7. 127 bytes are 8 whole periods, so stream
// byte q scrambles with entry q % 127. Built from one period of the
// register; the transmit and receive paths share it.
const std::array<std::uint8_t, kScramblerPeriod> kScramblerBytes = [] {
  const auto period = scrambler_period();
  std::array<std::uint8_t, kScramblerPeriod> bytes{};
  for (std::size_t q = 0; q < kScramblerPeriod; ++q) {
    unsigned v = 0;
    for (std::size_t k = 0; k < 8; ++k) {
      v = (v << 1) | period[(8 * q + k) % kScramblerPeriod];
    }
    bytes[q] = static_cast<std::uint8_t>(v);
  }
  return bytes;
}();

// The data field's 16-bit service field, in bytes.
constexpr std::size_t kServiceBytes = 2;

// Total (pre-coding) bit count: service + payload + CRC32 + tail, padded to
// a whole OFDM symbol at the MCS's data rate.
std::size_t padded_data_bits(std::size_t payload_bytes, const Mcs& mcs) {
  const std::size_t raw = 16 + 8 * (payload_bytes + 4) + 6;
  const std::size_t per_sym = mcs.n_dbps;
  const std::size_t n_sym = (raw + per_sym - 1) / per_sym;
  return n_sym * per_sym;
}

}  // namespace

std::size_t encoded_symbol_count(std::size_t payload_bytes, const Mcs& mcs) {
  return padded_data_bits(payload_bytes, mcs) / mcs.n_dbps;
}

std::vector<cdouble> encode_payload(const std::vector<std::uint8_t>& payload,
                                    const Mcs& mcs) {
  // The scrambled data field, packed: the service field (zeros), payload
  // and FCS bytes, 6 tail bits and zero pad to a whole symbol.
  const std::size_t n_sym = encoded_symbol_count(payload.size(), mcs);
  std::vector<std::uint8_t> field((n_sym * mcs.n_dbps + 7) / 8, 0);
  std::copy(payload.begin(), payload.end(), field.begin() + kServiceBytes);
  const std::uint32_t fcs = crc32(payload);
  const std::size_t tail_byte = kServiceBytes + payload.size() + 4;
  for (std::size_t b = 0; b < 4; ++b) {
    field[tail_byte - 4 + b] = static_cast<std::uint8_t>(fcs >> (24 - 8 * b));
  }
  for (std::size_t q = 0, phase = 0; q < field.size(); ++q) {
    field[q] ^= kScramblerBytes[phase];
    phase = phase + 1 == kScramblerPeriod ? 0 : phase + 1;
  }
  // The tail, the top 6 bits of the byte after the FCS, stays zero so the
  // Viterbi trellis terminates in state 0 (as 802.11a does).
  field[tail_byte] &= 0x03;

  // One OFDM symbol at a time: unpack its data bits, encode them, and map
  // the interleaved coded bits straight to constellation points.
  const std::size_t bps = bits_per_symbol(mcs.modulation);
  const std::vector<std::size_t>& from = deinterleave_map(mcs.n_cbps, bps);
  const std::vector<cdouble>& pts = constellation_points(mcs.modulation);
  std::vector<cdouble> out;
  out.reserve(n_sym * (mcs.n_cbps / bps));
  Bits data(mcs.n_dbps);
  Bits coded(mcs.n_cbps);
  ConvEncoder encoder(mcs.code_rate);
  std::size_t i = 0;  // bit index in the data field
  for (std::size_t sym = 0; sym < n_sym; ++sym) {
    for (std::uint8_t& bit : data) {
      bit = static_cast<std::uint8_t>((field[i / 8] >> (7 - i % 8)) & 1u);
      ++i;
    }
    const std::size_t n =
        encoder.encode(data.data(), data.size(), coded.data());
    assert(n == coded.size());
    (void)n;
    for (std::size_t j = 0; j < coded.size(); j += bps) {
      std::size_t word = 0;
      for (std::size_t b = 0; b < bps; ++b) {
        word = (word << 1) | coded[from[j + b]];
      }
      out.push_back(pts[word]);
    }
  }
  return out;
}

std::optional<std::vector<std::uint8_t>> decode_payload(
    const std::vector<cdouble>& symbols, const std::vector<double>& noise_var,
    std::size_t payload_bytes, const Mcs& mcs) {
  const std::size_t n_data_bits = padded_data_bits(payload_bytes, mcs);
  const std::size_t n_coded = coded_length(n_data_bits, mcs.code_rate);
  if (symbols.size() * bits_per_symbol(mcs.modulation) < n_coded) {
    return std::nullopt;
  }
  // The decoder's input, demapped and deinterleaved in one pass.
  std::vector<double> llr(n_coded);
  demap_soft_deinterleaved(symbols, noise_var, mcs.modulation, mcs.n_cbps,
                           llr);
  return detail::unpack_payload(
      viterbi_decode_soft(llr, n_data_bits, mcs.code_rate), payload_bytes);
}

namespace detail {

std::optional<std::vector<std::uint8_t>> unpack_payload(
    const Bits& scrambled, std::size_t payload_bytes) {
  std::vector<std::uint8_t> bytes(payload_bytes + 4);
  if (scrambled.size() < 8 * (kServiceBytes + bytes.size())) {
    return std::nullopt;
  }
  // Pack MSB first and descramble, past the service field; the tail and
  // pad bits after the FCS are never read.
  const std::uint8_t* bit = scrambled.data() + 8 * kServiceBytes;
  std::size_t phase = kServiceBytes;
  for (std::uint8_t& byte : bytes) {
    unsigned v = 0;
    for (int k = 0; k < 8; ++k) v = (v << 1) | (*bit++ & 1u);
    byte = static_cast<std::uint8_t>(v ^ kScramblerBytes[phase]);
    phase = phase + 1 == kScramblerPeriod ? 0 : phase + 1;
  }
  const std::uint8_t* f = bytes.data() + payload_bytes;
  const std::uint32_t fcs = (static_cast<std::uint32_t>(f[0]) << 24) |
                            (static_cast<std::uint32_t>(f[1]) << 16) |
                            (static_cast<std::uint32_t>(f[2]) << 8) |
                            static_cast<std::uint32_t>(f[3]);
  if (crc32(bytes.data(), payload_bytes) != fcs) return std::nullopt;
  bytes.resize(payload_bytes);
  return bytes;
}

}  // namespace detail

}  // namespace nplus::phy
