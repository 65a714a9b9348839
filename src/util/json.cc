#include "util/json.h"

#include <charconv>
#include <cmath>

namespace nplus::util {

std::string json_double(double v) {
  if (!std::isfinite(v)) return "null";
  // std::to_chars with no precision argument emits the SHORTEST string
  // that parses back to exactly `v` — the round-trip guarantee every
  // JSON consumer of this tree (the CI byte diffs) relies on.
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  if (res.ec != std::errc()) {
    // Unreachable with a 64-byte buffer, but never emit garbage: 17
    // significant digits round-trip every finite double (just not always
    // in the shortest form).
    res = std::to_chars(buf, buf + sizeof(buf), v,
                        std::chars_format::general, 17);
  }
  return std::string(buf, res.ptr);
}

std::string json_escape(const std::string& s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const auto u = static_cast<unsigned char>(c);
        if (u < 0x20) {
          out += "\\u00";
          out += kHex[(u >> 4) & 0xF];
          out += kHex[u & 0xF];
        } else {
          out += c;
        }
      }
    }
  }
  return out;
}

}  // namespace nplus::util
