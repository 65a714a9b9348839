#include "phy/scrambler.h"

namespace nplus::phy {

std::uint8_t Scrambler::next_bit() {
  // Feedback = x^7 XOR x^4 (bits 6 and 3 of the 7-bit register).
  const std::uint8_t fb =
      static_cast<std::uint8_t>(((state_ >> 6) ^ (state_ >> 3)) & 1u);
  state_ = static_cast<std::uint8_t>(((state_ << 1) | fb) & 0x7F);
  return fb;
}

std::array<std::uint8_t, kScramblerPeriod> scrambler_period(
    std::uint8_t seed) {
  Scrambler s(seed);
  std::array<std::uint8_t, kScramblerPeriod> period{};
  for (auto& b : period) b = s.next_bit();
  return period;
}

}  // namespace nplus::phy
