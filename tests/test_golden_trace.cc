// Golden-trace regression: pinned-seed session summaries for every preset,
// diffed against checked-in fixtures in tests/golden/*.json.
//
// The fixtures pin the observable behavior of the whole stack — scenario
// generation, world drawing, DCF contention, admission, precoding, rate
// selection, and abstracted delivery scoring — for a fixed seed. Two more
// fixtures (dense_cell_faults_{nplus,dot11n}) pin the failure-aware MAC
// under both schemes: goodput and every FaultStats counter. Any
// intentional behavior change (new calibration table, protocol tweak,
// accounting fix) shifts them; regenerate deliberately with:
//
//   ./test_golden_trace --update-golden
//
// and review the diff like any other code change. Values are compared with
// a 1e-6 relative tolerance so the fixtures survive compiler/platform FP
// variation (FMA contraction, libm differences) without masking real
// changes, which move results by orders of magnitude more.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/scenario_gen.h"
#include "sim/session.h"
#include "util/rng.h"

#ifndef NPLUS_GOLDEN_DIR
#error "NPLUS_GOLDEN_DIR must point at tests/golden (set by CMake)"
#endif

namespace nplus {
namespace {

bool g_update_golden = false;

constexpr std::uint64_t kSeed = 42;
constexpr std::size_t kRounds = 60;
constexpr std::size_t kFaultRounds = 150;

// A fixture is an ordered list of "key": value lines; `text` holds the
// value as written (quoted string, %.17g number, or [a, b, ...] array).
struct Field {
  std::string key;
  std::string text;
};
using Fields = std::vector<Field>;

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string str(const std::string& v) { return "\"" + v + "\""; }

template <typename T>
std::string arr(const std::vector<T>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    out += (i == 0 ? "" : ", ") + num(static_cast<double>(xs[i]));
  }
  return out + "]";
}

// Session summary fields shared by every fixture, after the header lines.
void add_summary(Fields& f, const sim::SessionResult& res) {
  f.push_back({"duration_s", num(res.duration_s)});
  f.push_back({"total_mbps", num(res.total_mbps)});
  f.push_back({"jain", num(res.jain)});
  f.push_back({"joins_per_round", num(res.mean_winners_per_round)});
  f.push_back({"streams_per_round", num(res.mean_streams_per_round)});
  f.push_back({"per_link_mbps", arr(res.per_link_mbps)});
}

Fields run_trace(sim::Preset preset) {
  util::Rng rng(kSeed);
  util::Rng world_rng = rng.fork(11);
  util::Rng session_rng = rng.fork(12);
  const sim::GeneratedTopology topo = sim::make_preset(preset);
  sim::World world = sim::make_world(topo, world_rng);
  sim::SessionConfig cfg;
  cfg.n_rounds = kRounds;
  cfg.round.fidelity = sim::Fidelity::kAbstracted;
  const sim::SessionResult res =
      sim::run_session(world, topo.scenario, session_rng, cfg);
  Fields f = {{"preset", str(sim::preset_name(preset))},
              {"seed", num(static_cast<double>(kSeed))},
              {"rounds", num(static_cast<double>(res.rounds))},
              {"fidelity", str("abstracted")}};
  add_summary(f, res);
  return f;
}

// The failure-aware MAC under a plan harsh enough to force every recovery
// path: header deferrals, lost ACKs (ACK timeouts + duplicate deliveries),
// retry chains that hit the 2-retry limit and drop, CSI-measurement
// failures, degenerate channels, and node crash/restart.
Fields run_fault_trace(sim::Scheme scheme) {
  const sim::Preset preset = sim::Preset::kDenseCell;
  util::Rng rng(kSeed);
  util::Rng world_rng = rng.fork(11);
  util::Rng session_rng = rng.fork(12);
  const sim::GeneratedTopology topo = sim::make_preset(preset);
  sim::World world = sim::make_world(topo, world_rng);
  sim::SessionConfig cfg;
  cfg.n_rounds = kFaultRounds;
  cfg.round.fidelity = sim::Fidelity::kAbstracted;
  cfg.scheme = scheme;
  cfg.faults.header_loss_rate = 0.3;
  cfg.faults.ack_loss_rate = 0.2;
  cfg.faults.frame_loss_rate = 0.35;
  cfg.faults.csi_failure_rate = 0.2;
  cfg.faults.degenerate_channel_rate = 0.05;
  cfg.faults.node_outage_hz = 5.0;
  cfg.faults.node_recovery_hz = 50.0;
  cfg.faults.retry_limit = 2;
  const sim::SessionResult res =
      sim::run_session(world, topo.scenario, session_rng, cfg);
  const sim::FaultStats& fs = res.faults;
  Fields f = {
      {"preset", str(sim::preset_name(preset))},
      {"scheme", str(scheme == sim::Scheme::kDot11n ? "dot11n" : "nplus")},
      {"seed", num(static_cast<double>(kSeed))},
      {"rounds", num(static_cast<double>(res.rounds))},
      {"fidelity", str("abstracted")}};
  add_summary(f, res);
  f.push_back({"goodput_mbps", num(res.goodput_mbps)});
  f.push_back({"per_link_goodput_mbps", arr(res.per_link_goodput_mbps)});
  f.push_back({"idle_rounds", num(static_cast<double>(res.idle_rounds))});
  f.push_back({"mean_active_links", num(res.mean_active_links)});
  f.push_back({"degenerate_esnr",
               num(static_cast<double>(res.degenerate_esnr))});
  const std::vector<std::pair<const char*, std::size_t>> counters = {
      {"frames_completed", fs.frames_completed},
      {"frames_dropped", fs.frames_dropped},
      {"retransmissions", fs.retransmissions},
      {"ack_losses", fs.ack_losses},
      {"header_deferrals", fs.header_deferrals},
      {"blind_joins", fs.blind_joins},
      {"csi_failures", fs.csi_failures},
      {"fault_degenerate_esnr", fs.degenerate_esnr},
      {"outages", fs.outages}};
  for (const auto& [key, value] : counters) {
    f.push_back({key, num(static_cast<double>(value))});
  }
  f.push_back({"retry_histogram", arr(fs.retry_histogram)});
  f.push_back({"outage_s_mean", num(fs.outage_s.mean())});
  f.push_back({"recovery_s_mean", num(fs.recovery_s.mean())});
  return f;
}

std::string golden_path(const std::string& name) {
  return std::string(NPLUS_GOLDEN_DIR) + "/" + name + ".json";
}

void write_golden(const std::string& name, const Fields& fields) {
  FILE* f = std::fopen(golden_path(name).c_str(), "w");
  ASSERT_NE(f, nullptr) << "cannot write " << golden_path(name);
  std::fprintf(f, "{\n");
  for (std::size_t i = 0; i < fields.size(); ++i) {
    std::fprintf(f, "  \"%s\": %s%s\n", fields[i].key.c_str(),
                 fields[i].text.c_str(), i + 1 < fields.size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
}

// Numbers in a value text: one for a scalar, all elements for an array.
std::vector<double> parse_numbers(const std::string& text) {
  std::vector<double> out;
  const char* p = text.c_str();
  if (*p == '[') ++p;
  while (*p != '\0' && *p != ']') {
    char* end = nullptr;
    out.push_back(std::strtod(p, &end));
    if (end == p) break;
    p = end;
    while (*p == ',' || *p == ' ') ++p;
  }
  return out;
}

void expect_close(double actual, double golden, const std::string& what) {
  const double tol = 1e-6 * std::max(1.0, std::abs(golden));
  EXPECT_NEAR(actual, golden, tol) << what;
}

// Checks (or, under --update-golden, rewrites) one fixture: strings must
// match exactly, numbers within the relative tolerance above.
void check_golden(const std::string& name, const Fields& fields) {
  if (g_update_golden) {
    write_golden(name, fields);
    std::printf("regenerated %s\n", golden_path(name).c_str());
    return;
  }

  std::ifstream in(golden_path(name));
  ASSERT_TRUE(in.good())
      << golden_path(name)
      << " missing — run ./test_golden_trace --update-golden";
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  for (const Field& field : fields) {
    const std::string needle = "\"" + field.key + "\": ";
    const std::size_t pos = text.find(needle);
    ASSERT_NE(pos, std::string::npos) << "missing key " << field.key;
    const std::size_t start = pos + needle.size();
    std::string golden = text.substr(start, text.find('\n', start) - start);
    if (!golden.empty() && golden.back() == ',') golden.pop_back();
    if (field.text.front() == '"') {
      EXPECT_EQ(field.text, golden) << field.key;
      continue;
    }
    const std::vector<double> want = parse_numbers(golden);
    const std::vector<double> got = parse_numbers(field.text);
    ASSERT_EQ(want.size(), got.size()) << field.key;
    for (std::size_t i = 0; i < want.size(); ++i) {
      expect_close(got[i], want[i], field.key);
    }
  }
}

class GoldenTraceSuite : public ::testing::TestWithParam<sim::Preset> {};

TEST_P(GoldenTraceSuite, MatchesCheckedInFixture) {
  const sim::Preset preset = GetParam();
  check_golden(sim::preset_name(preset), run_trace(preset));
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, GoldenTraceSuite,
    ::testing::Values(sim::Preset::kThreePair, sim::Preset::kHiddenTerminal,
                      sim::Preset::kExposedTerminal,
                      sim::Preset::kDenseCell),
    [](const ::testing::TestParamInfo<sim::Preset>& param_info) {
      return sim::preset_name(param_info.param);
    });

class FaultGoldenSuite : public ::testing::TestWithParam<sim::Scheme> {};

TEST_P(FaultGoldenSuite, MatchesCheckedInFixture) {
  const sim::Scheme scheme = GetParam();
  const std::string name = std::string("dense_cell_faults_") +
                           (scheme == sim::Scheme::kDot11n ? "dot11n"
                                                           : "nplus");
  check_golden(name, run_fault_trace(scheme));
}

INSTANTIATE_TEST_SUITE_P(
    BothSchemes, FaultGoldenSuite,
    ::testing::Values(sim::Scheme::kNplus, sim::Scheme::kDot11n),
    [](const ::testing::TestParamInfo<sim::Scheme>& param_info) {
      return param_info.param == sim::Scheme::kDot11n ? "dot11n" : "nplus";
    });

}  // namespace
}  // namespace nplus

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--update-golden") == 0) {
      nplus::g_update_golden = true;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
