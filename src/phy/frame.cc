#include "phy/frame.h"

#include <cassert>

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

namespace {

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
  // Append FCS.
  std::vector<std::uint8_t> with_crc = payload;
  const std::uint32_t fcs = crc32(payload);
  with_crc.push_back(static_cast<std::uint8_t>(fcs >> 24));
  with_crc.push_back(static_cast<std::uint8_t>(fcs >> 16));
  with_crc.push_back(static_cast<std::uint8_t>(fcs >> 8));
  with_crc.push_back(static_cast<std::uint8_t>(fcs));

  // Service field (16 zero bits) + data + tail + pad.
  Bits bits(16, 0);
  const Bits data_bits = bytes_to_bits(with_crc);
  bits.insert(bits.end(), data_bits.begin(), data_bits.end());
  const std::size_t total = padded_data_bits(payload.size(), mcs);
  bits.resize(total, 0);

  // Scramble everything, then force the 6 tail bits back to zero so the
  // Viterbi trellis terminates in state 0 (as 802.11a does).
  Bits scrambled = scramble(bits);
  const std::size_t tail_start = 16 + data_bits.size();
  for (std::size_t i = 0; i < 6; ++i) scrambled[tail_start + i] = 0;

  const Bits coded = conv_encode(scrambled, mcs.code_rate);
  const Bits inter =
      interleave(coded, mcs.n_cbps, bits_per_symbol(mcs.modulation));
  return map_bits(inter, mcs.modulation);
}

std::optional<std::vector<std::uint8_t>> decode_payload(
    const std::vector<cdouble>& symbols, const std::vector<double>& noise_var,
    std::size_t payload_bytes, const Mcs& mcs) {
  const std::size_t n_data_bits = padded_data_bits(payload_bytes, mcs);
  const std::size_t n_coded = coded_length(n_data_bits, mcs.code_rate);
  const std::size_t bps = bits_per_symbol(mcs.modulation);
  if (symbols.size() * bps < n_coded) return std::nullopt;

  std::vector<double> llr = demap_soft(symbols, noise_var, mcs.modulation);
  llr.resize(n_coded);

  const std::vector<double> deinter =
      deinterleave_soft(llr, mcs.n_cbps, bps);
  Bits scrambled = viterbi_decode_soft(deinter, n_data_bits, mcs.code_rate);

  // Descramble; the forced-zero tail bits decode to scrambler output, which
  // descrambling maps back — we simply ignore everything past the payload.
  Bits bits = descramble(scrambled);

  // Drop the service field, take payload + CRC.
  const std::size_t need = 16 + 8 * (payload_bytes + 4);
  if (bits.size() < need) return std::nullopt;
  const Bits body(bits.begin() + 16, bits.begin() + static_cast<long>(need));
  std::vector<std::uint8_t> bytes = bits_to_bytes(body);

  std::vector<std::uint8_t> payload(bytes.begin(),
                                    bytes.end() - 4);
  const std::uint32_t fcs =
      (static_cast<std::uint32_t>(bytes[bytes.size() - 4]) << 24) |
      (static_cast<std::uint32_t>(bytes[bytes.size() - 3]) << 16) |
      (static_cast<std::uint32_t>(bytes[bytes.size() - 2]) << 8) |
      static_cast<std::uint32_t>(bytes[bytes.size() - 1]);
  if (crc32(payload) != fcs) return std::nullopt;
  return payload;
}

}  // namespace nplus::phy
