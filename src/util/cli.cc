#include "util/cli.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/thread_pool.h"

namespace nplus::util {

namespace {

// Removes argv[i] (and optionally argv[i+1]) in place, preserving the
// argv[argc] == nullptr invariant.
void erase_args(int& argc, char** argv, int i, int count) {
  for (int j = i; j + count <= argc; ++j) argv[j] = argv[j + count];
  argc -= count;
  argv[argc] = nullptr;
}

// Finds `--name VALUE` / `--name=VALUE`, erases it from argv, and returns
// the value; nullopt when the flag is absent.
std::optional<std::string> take_value(int& argc, char** argv,
                                      const char* name) {
  const std::size_t len = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      if (i + 1 >= argc) {
        throw UsageError(std::string(name) + " requires a value");
      }
      std::string value = argv[i + 1];
      erase_args(argc, argv, i, 2);
      return value;
    }
    if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
      std::string value = argv[i] + len + 1;
      erase_args(argc, argv, i, 1);
      return value;
    }
  }
  return std::nullopt;
}

}  // namespace

std::size_t init_threads_from_cli(int& argc, char** argv, bool strict) {
  std::size_t requested = 0;  // 0 = env var / hardware default
  if (strict) {
    if (const auto v = take_size_option(argc, argv, "--threads")) {
      if (*v == 0) throw UsageError("--threads must be >= 1");
      requested = *v;
    }
  } else {
    int out = 1;
    for (int in = 1; in < argc; ++in) {
      const char* arg = argv[in];
      const char* value = nullptr;
      if (std::strcmp(arg, "--threads") == 0) {
        // Always consumed, so a forgotten value can't leak into the
        // positional arguments (e.g. become a filename or a trial count).
        if (in + 1 < argc) {
          value = argv[++in];
        } else {
          std::fprintf(stderr, "--threads requires a value; ignored\n");
          continue;
        }
      } else if (std::strncmp(arg, "--threads=", 10) == 0) {
        value = arg + 10;
      }
      if (value != nullptr) {
        errno = 0;
        char* end = nullptr;
        const long v = std::strtol(value, &end, 10);
        // Full-string parse only: "4x" silently becoming 4 threads would
        // change the schedule (and thus the trace) without any signal.
        if (errno == 0 && end != value && *end == '\0' && v >= 1) {
          requested = static_cast<std::size_t>(v);
        } else {
          std::fprintf(stderr, "invalid --threads value '%s'; ignored\n",
                       value);
        }
        continue;
      }
      argv[out++] = argv[in];
    }
    argv[out] = nullptr;  // keep the argv[argc] == nullptr invariant
    argc = out;
  }
  ThreadPool::set_global_threads(requested);
  return requested != 0 ? requested : default_thread_count();
}

std::optional<std::string> take_option(int& argc, char** argv,
                                       const char* name) {
  return take_value(argc, argv, name);
}

std::optional<std::size_t> take_size_option(int& argc, char** argv,
                                            const char* name) {
  const auto raw = take_value(argc, argv, name);
  if (!raw) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw->c_str(), &end, 10);
  if (errno != 0 || end == raw->c_str() || *end != '\0' ||
      raw->front() == '-') {
    throw UsageError(std::string(name) + ": invalid count '" + *raw + "'");
  }
  return static_cast<std::size_t>(v);
}

std::optional<double> take_double_option(int& argc, char** argv,
                                         const char* name) {
  const auto raw = take_value(argc, argv, name);
  if (!raw) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(raw->c_str(), &end);
  if (errno != 0 || end == raw->c_str() || *end != '\0') {
    throw UsageError(std::string(name) + ": invalid number '" + *raw + "'");
  }
  return v;
}

void reject_unknown_flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) == 0) {
      throw UsageError(std::string("unknown option '") + argv[i] + "'");
    }
  }
}

int cli_main(int argc, char** argv, const char* usage,
             const std::function<int(int, char**)>& body) {
  try {
    return body(argc, argv);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\nusage: %s %s\n", e.what(),
                 argc > 0 ? argv[0] : "bench", usage);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace nplus::util
