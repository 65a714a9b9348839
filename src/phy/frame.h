// Frame formats and the bit-level encode/decode pipeline
// (scramble -> convolutional code -> interleave -> constellation map).
//
// n+ uses the light-weight handshake (§3.5): the DATA and ACK *headers* are
// split from their bodies and exchanged first, doubling as RTS/CTS. The
// header formats below therefore carry the fields §3.5 enumerates: preamble
// (implicit), packet length, bitrate/MCS, number of antennas/streams, source
// and destination addresses — plus, for ACK headers, the chosen bitrate and
// the (compressed) alignment space, which are appended by the nulling layer.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "phy/mcs.h"
#include "phy/scrambler.h"

namespace nplus::phy {

enum class FrameType : std::uint8_t {
  kDataHeader = 1,  // light-weight RTS
  kAckHeader = 2,   // light-weight CTS
  kDataBody = 3,
  kAckBody = 4,
};

// Fixed-size on-air header. Multi-receiver transmissions (Fig. 4: one AP,
// two clients in one shot) repeat the per-receiver block; for the common
// single-receiver case n_receivers == 1.
struct FrameHeader {
  FrameType type = FrameType::kDataHeader;
  std::uint16_t src = 0;
  std::uint16_t dst = 0;          // first / primary receiver
  std::uint16_t length_bytes = 0; // body length
  std::uint8_t mcs_index = 0;
  std::uint8_t n_streams = 1;     // streams used in this transmission
  std::uint8_t n_antennas = 1;    // antennas on the sender (§3.5: "the
                                  // number of antennas" is in the handshake)
  std::uint16_t duration_us = 0;  // remaining airtime, NAV-style
  std::uint16_t seq = 0;

  // Serializes to bytes with a trailing CRC-8 (the light-weight handshake's
  // per-header checksum).
  std::vector<std::uint8_t> serialize() const;
  static std::optional<FrameHeader> parse(
      const std::vector<std::uint8_t>& bytes);

  static constexpr std::size_t kWireSize = 15;  // 14 payload + CRC-8
};

// --- Bit-level codec ----------------------------------------------------

// Encodes payload bytes into constellation symbols, 48 per OFDM symbol:
// appends CRC-32, prepends the 16-bit service field, scrambles, adds 6 tail
// bits, pads to a whole symbol, convolutionally encodes, interleaves, maps.
// Bytes enter the bit stream MSB first. The coding stages run one OFDM
// symbol at a time, with no one-byte-per-bit copy of the frame.
std::vector<cdouble> encode_payload(const std::vector<std::uint8_t>& payload,
                                    const Mcs& mcs);

// Number of OFDM symbols encode_payload will produce.
std::size_t encoded_symbol_count(std::size_t payload_bytes, const Mcs& mcs);

// Inverse of encode_payload from soft symbol observations.
// `noise_var[i]` is the noise variance of symbols[i] (post-equalization).
// Returns the payload bytes if the CRC-32 checks out, nullopt otherwise.
std::optional<std::vector<std::uint8_t>> decode_payload(
    const std::vector<cdouble>& symbols, const std::vector<double>& noise_var,
    std::size_t payload_bytes, const Mcs& mcs);

namespace detail {

// decode_payload's last stage, a seam for tests: descrambles the Viterbi
// output `scrambled` (the whole data field, service bits first), packs the
// payload and FCS bytes MSB first and checks the CRC-32. Returns the
// payload if it checks out, nullopt otherwise or if `scrambled` is too
// short to hold them.
std::optional<std::vector<std::uint8_t>> unpack_payload(
    const Bits& scrambled, std::size_t payload_bytes);

}  // namespace detail

}  // namespace nplus::phy
