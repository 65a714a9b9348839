// 802.11 frame-synchronous scrambler (polynomial x^7 + x^4 + 1).
//
// Scrambling whitens the bit stream before convolutional coding so that long
// runs of identical bits do not bias the constellation. Descrambling is the
// same operation (self-inverse given the same initial state): the codec
// (frame.cc) XORs its bits with the register's sequence, read from one
// period.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace nplus::phy {

using Bits = std::vector<std::uint8_t>;  // one bit per byte, value 0 or 1

class Scrambler {
 public:
  // `seed` is the 7-bit initial shift-register state (nonzero).
  explicit Scrambler(std::uint8_t seed = 0x5D) : state_(seed & 0x7F) {}

  // Produces the next scrambling bit and advances the register.
  std::uint8_t next_bit();

 private:
  std::uint8_t state_;
};

// The register returns to its seed every 127 steps (x^7 + x^4 + 1 is
// primitive), so a stream's bit i is scrambled with entry i % 127 of one
// period: the first 127 next_bit() values of Scrambler(seed).
constexpr std::size_t kScramblerPeriod = 127;
std::array<std::uint8_t, kScramblerPeriod> scrambler_period(
    std::uint8_t seed = 0x5D);

}  // namespace nplus::phy
