// Command-line plumbing shared by the bench drivers and examples.
//
// Every driver accepts `--threads N` (or `--threads=N`), which sizes the
// global ThreadPool before any experiment runs; without the flag the
// NPLUS_THREADS environment variable applies, and without either the pool
// uses hardware_concurrency(). The flag is stripped from argv so drivers
// can keep their positional arguments.
//
// The rest of this header is the drivers' single error path: flag parsing
// helpers that throw UsageError on malformed input, and cli_main, which
// turns a UsageError into exit code 2 with the driver's usage line on
// stderr and any other exception into exit code 1 with its message — so no
// bench ever dies with a raw terminate() or, worse, swallows a typo and
// silently benchmarks the wrong configuration.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>

namespace nplus::util {

// A malformed command line (unknown flag, missing or unparsable value).
// cli_main reports it with the usage line and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Parses and removes --threads from (argc, argv), configures the global
// pool, and returns the thread count experiments will run with. `strict`
// throws UsageError on a missing/invalid value; the legacy lenient mode
// warns on stderr and ignores the flag.
std::size_t init_threads_from_cli(int& argc, char** argv,
                                  bool strict = false);

// Consumes `--name VALUE` or `--name=VALUE`; nullopt when absent, throws
// UsageError when the value is missing.
std::optional<std::string> take_option(int& argc, char** argv,
                                       const char* name);

// take_option + numeric parse; throws UsageError on garbage, sign errors,
// or trailing junk ("--kill-after 3x").
std::optional<std::size_t> take_size_option(int& argc, char** argv,
                                            const char* name);
std::optional<double> take_double_option(int& argc, char** argv,
                                         const char* name);

// Throws UsageError on the first remaining argument that still looks like
// a flag (starts with "--"): call after all take_* so a typo such as
// --chekpoint can never be mistaken for an output filename.
void reject_unknown_flags(int argc, char** argv);

// Runs `body` and maps exceptions to exit codes: UsageError -> 2 (message
// plus "usage: <usage>" on stderr), any other std::exception -> 1 (message
// on stderr). `body` gets the (argc, argv) it should parse.
int cli_main(int argc, char** argv, const char* usage,
             const std::function<int(int, char**)>& body);

}  // namespace nplus::util
