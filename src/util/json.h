// One JSON number/string formatter for every writer in the tree.
//
// The bench drivers used to format JSON numbers with whatever precision the
// ostream or printf format string happened to carry ("%.9g", default
// ostream 6 digits). Two consequences: (1) near-equal values — adjacent
// histogram bucket bounds, two sessions whose throughput differs in the
// 10th digit — collided after rounding, so downstream diffs saw them as
// identical; (2) a re-read of the
// JSON did not reproduce the double that was written, so "compare the
// fresh run against the checked-in baseline" silently compared rounded
// values. `json_double` is the single seam: shortest round-trippable
// representation (std::to_chars), guaranteed to parse back to the exact
// same bit pattern. Non-finite values (which raw printf would emit as the
// JSON-invalid tokens `nan`/`inf`) become `null`, keeping every emitted
// file parseable.
#pragma once

#include <string>

namespace nplus::util {

// Shortest decimal string that round-trips to exactly `v` (strtod/from_chars
// reproduce the bit pattern). NaN and +/-inf — not representable in JSON —
// are emitted as "null"; writers that must not lose them should guard
// upstream. Integral values format without a trailing ".0" (JSON does not
// distinguish); "-0" keeps its sign, as to_chars produces it.
std::string json_double(double v);

// Minimal JSON string escaping: backslash, double quote, and control
// characters (\b \f \n \r \t, \u00XX for the rest). Input is assumed to be
// ASCII/UTF-8 passthrough; bytes >= 0x20 other than `"` and `\` are copied
// verbatim. Returns the escaped contents WITHOUT surrounding quotes.
std::string json_escape(const std::string& s);

}  // namespace nplus::util
