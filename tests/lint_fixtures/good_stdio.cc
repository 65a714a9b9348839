// LINT-PATH: src/util/cli.cc
// util::cli is the allowlisted output owner; and outside src/ — drivers,
// tests, examples — printing is always fine. A "printf" inside a string
// literal must never match either.
#include <cstdio>
#include <string>

namespace nplus::util {

void log_line(const char* msg) {
  std::fprintf(stderr, "[info] %s\n", msg);
}

std::string describe() {
  return "library code never calls printf( directly";
}

}  // namespace nplus::util
