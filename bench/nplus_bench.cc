// nplus-bench: one driver, any scenario, one canonical JSON schema.
//
// The 16 figure/sweep binaries each invent their own output format, which
// is exactly why CI can diff them only for determinism, never for speed.
// This driver runs a sweep described by a small config file (see
// bench/configs/*.cfg and bench/README.md) and emits the ONE schema
// (`nplus-bench-v1`) that scripts/bench_compare.py understands — so adding
// a perf-gated scenario means adding a config file, not a binary.
//
//   ./nplus-bench CONFIG.cfg [--out FILE] [--trace FILE] [--timing FILE]
//                 [--threads N] [--checkpoint FILE] [--resume FILE]
//                 [--checkpoint-every K] [--watchdog SECONDS] [--retries N]
//                 [--kill-after N]
//
// Config format: `key = value` lines, '#' comments. Grid axes (n_links,
// placement, fidelity) take comma-separated lists; the sweep is their
// cartesian product with `worlds_per_point` generated worlds per point,
// flattened in config order — that flat order is the determinism contract
// (item i's randomness is forked from the master seed before dispatch).
//
// Output discipline (the properties CI leans on):
//   * The results JSON (--out) contains ONLY simulation quantities — no
//     wall clock, no thread count — and every number goes through
//     util::json_double (shortest round-trippable form), so the file is
//     byte-identical across --threads 1/2/4 and safely re-parseable.
//   * The merged event trace is summarized in the JSON (record count +
//     CRC-32 of the serialized records), so the byte-compare also pins the
//     full telemetry stream; --trace FILE additionally writes the NPTR
//     binary (util/trace.h), itself byte-identical across thread counts.
//   * Wall-clock timing goes to the SEPARATE --timing file (and stdout),
//     never into the results JSON.
//
// The sweep runs under sim::CheckpointedRunner: quarantined failures exit
// 3 (partial JSON), --checkpoint/--resume give kill-safe restarts, and
// --kill-after N is the CI chaos hook (hard exit 42).

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/checkpoint_runner.h"
#include "sim/scenario_gen.h"
#include "sim/session.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/quantile.h"
#include "util/trace.h"

namespace {

using namespace nplus;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Config file ---------------------------------------------------------

struct BenchConfig {
  std::string name;
  std::uint64_t seed = 7;
  std::size_t rounds = 40;
  std::size_t worlds_per_point = 1;
  std::size_t snapshot_every = 0;
  std::vector<std::size_t> n_links = {3};
  std::vector<std::string> placement = {"uniform"};
  std::vector<std::string> fidelity = {"abstracted"};
  std::string pattern = "peer";
  std::string scheme = "nplus";
  std::string mobility = "static";
  bool include_overheads = true;
  bool lazy_channels = false;
  bool rate_control = false;
  double inter_round_gap_s = 0.0;
  double env_doppler_hz = 0.0;
  double flow_arrival_hz = 0.0;
  double flow_departure_hz = 0.0;
  double node_leave_hz = 0.0;
  double node_return_hz = 0.0;
  std::size_t ring_capacity = 512;
};

[[noreturn]] void bad_config(const std::string& why) {
  throw util::UsageError("config: " + why);
}

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

std::vector<std::string> split_list(const std::string& v) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= v.size()) {
    const std::size_t comma = v.find(',', start);
    const std::string item =
        trim(comma == std::string::npos ? v.substr(start)
                                        : v.substr(start, comma - start));
    if (item.empty()) bad_config("empty element in list '" + v + "'");
    out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

std::size_t parse_size(const std::string& key, const std::string& v) {
  std::size_t pos = 0;
  unsigned long long n = 0;
  try {
    n = std::stoull(v, &pos);
  } catch (const std::exception&) {
    bad_config(key + ": expected a non-negative integer, got '" + v + "'");
  }
  if (pos != v.size() || v[0] == '-') {
    bad_config(key + ": expected a non-negative integer, got '" + v + "'");
  }
  return static_cast<std::size_t>(n);
}

double parse_double(const std::string& key, const std::string& v) {
  std::size_t pos = 0;
  double d = 0.0;
  try {
    d = std::stod(v, &pos);
  } catch (const std::exception&) {
    bad_config(key + ": expected a number, got '" + v + "'");
  }
  if (pos != v.size()) {
    bad_config(key + ": expected a number, got '" + v + "'");
  }
  return d;
}

bool parse_bool(const std::string& key, const std::string& v) {
  if (v == "true") return true;
  if (v == "false") return false;
  bad_config(key + ": expected true or false, got '" + v + "'");
}

void check_choice(const std::string& key, const std::string& v,
                  std::initializer_list<const char*> allowed) {
  for (const char* a : allowed) {
    if (v == a) return;
  }
  std::string msg = key + ": unknown value '" + v + "' (expected one of";
  for (const char* a : allowed) msg += std::string(" ") + a;
  bad_config(msg + ")");
}

BenchConfig load_config(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    throw util::UsageError("cannot open config file " + path);
  }
  std::string text;
  char chunk[4096];
  std::size_t got;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    text.append(chunk, got);
  }
  std::fclose(f);

  BenchConfig cfg;
  // Default name: the filename stem ("bench/configs/scale_smoke.cfg" ->
  // "scale_smoke"); an explicit `name =` line overrides it.
  {
    std::size_t slash = path.find_last_of('/');
    std::string stem =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const std::size_t dot = stem.find_last_of('.');
    if (dot != std::string::npos) stem = stem.substr(0, dot);
    cfg.name = stem;
  }

  std::size_t line_start = 0;
  int line_no = 0;
  while (line_start <= text.size()) {
    const std::size_t nl = text.find('\n', line_start);
    std::string line = text.substr(
        line_start,
        nl == std::string::npos ? std::string::npos : nl - line_start);
    line_start = nl == std::string::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      bad_config(path + ":" + std::to_string(line_no) +
                 ": expected 'key = value'");
    }
    const std::string key = trim(line.substr(0, eq));
    const std::string val = trim(line.substr(eq + 1));
    if (key.empty() || val.empty()) {
      bad_config(path + ":" + std::to_string(line_no) +
                 ": expected 'key = value'");
    }

    if (key == "name") {
      cfg.name = val;
    } else if (key == "seed") {
      cfg.seed = parse_size(key, val);
    } else if (key == "rounds") {
      cfg.rounds = parse_size(key, val);
    } else if (key == "worlds_per_point") {
      cfg.worlds_per_point = parse_size(key, val);
    } else if (key == "snapshot_every") {
      cfg.snapshot_every = parse_size(key, val);
    } else if (key == "ring_capacity") {
      cfg.ring_capacity = parse_size(key, val);
    } else if (key == "n_links") {
      cfg.n_links.clear();
      for (const auto& s : split_list(val)) {
        cfg.n_links.push_back(parse_size(key, s));
      }
    } else if (key == "placement") {
      cfg.placement = split_list(val);
      for (const auto& s : cfg.placement) {
        check_choice(key, s, {"uniform", "clustered"});
      }
    } else if (key == "fidelity") {
      cfg.fidelity = split_list(val);
      for (const auto& s : cfg.fidelity) {
        check_choice(key, s, {"abstracted", "full"});
      }
    } else if (key == "pattern") {
      check_choice(key, val, {"peer", "ap"});
      cfg.pattern = val;
    } else if (key == "scheme") {
      check_choice(key, val, {"nplus", "dot11n"});
      cfg.scheme = val;
    } else if (key == "mobility") {
      check_choice(key, val, {"static", "pedestrian", "fast"});
      cfg.mobility = val;
    } else if (key == "include_overheads") {
      cfg.include_overheads = parse_bool(key, val);
    } else if (key == "lazy_channels") {
      cfg.lazy_channels = parse_bool(key, val);
    } else if (key == "rate_control") {
      cfg.rate_control = parse_bool(key, val);
    } else if (key == "inter_round_gap_s") {
      cfg.inter_round_gap_s = parse_double(key, val);
    } else if (key == "env_doppler_hz") {
      cfg.env_doppler_hz = parse_double(key, val);
    } else if (key == "flow_arrival_hz") {
      cfg.flow_arrival_hz = parse_double(key, val);
    } else if (key == "flow_departure_hz") {
      cfg.flow_departure_hz = parse_double(key, val);
    } else if (key == "node_leave_hz") {
      cfg.node_leave_hz = parse_double(key, val);
    } else if (key == "node_return_hz") {
      cfg.node_return_hz = parse_double(key, val);
    } else {
      bad_config(path + ":" + std::to_string(line_no) + ": unknown key '" +
                 key + "' (see bench/README.md for the reference)");
    }
  }
  if (cfg.rounds == 0) bad_config("rounds must be >= 1");
  if (cfg.worlds_per_point == 0) bad_config("worlds_per_point must be >= 1");
  if (cfg.n_links.empty()) bad_config("n_links must list at least one size");
  return cfg;
}

// --- Sweep construction --------------------------------------------------

struct Point {
  std::size_t n_links = 0;
  std::string placement;
  std::string fidelity;
  std::size_t first_item = 0;  // index of its first session in the batch
};

sim::SweepItem make_item(const BenchConfig& cfg, std::size_t n_links,
                         const std::string& placement,
                         const std::string& fidelity) {
  sim::SweepItem item;
  item.gen.n_links = n_links;
  item.gen.placement = placement == "clustered"
                           ? sim::PlacementMode::kClustered
                           : sim::PlacementMode::kUniform;
  item.gen.pattern = cfg.pattern == "ap" ? sim::LinkPattern::kApDownlink
                                         : sim::LinkPattern::kPeerPairs;
  // Heterogeneous antenna mix biased toward small radios (the same mix the
  // scale_topologies sweep pinned).
  item.gen.tx_mix.weights = {0.35, 0.30, 0.20, 0.15};
  item.gen.rx_mix.weights = {0.35, 0.30, 0.20, 0.15};
  item.world.lazy_channels = cfg.lazy_channels;
  item.session.n_rounds = cfg.rounds;
  item.session.snapshot_every = cfg.snapshot_every;
  item.session.inter_round_gap_s = cfg.inter_round_gap_s;
  item.session.round.include_overheads = cfg.include_overheads;
  item.session.round.fidelity = fidelity == "full" ? sim::Fidelity::kFullPhy
                                                   : sim::Fidelity::kAbstracted;
  item.session.scheme = cfg.scheme == "dot11n" ? sim::Scheme::kDot11n
                                               : sim::Scheme::kNplus;
  if (cfg.mobility == "pedestrian") {
    item.session.dynamics.mobility.model = sim::MobilityModel::kRandomWaypoint;
  } else if (cfg.mobility == "fast") {
    item.session.dynamics.mobility.model = sim::MobilityModel::kRandomWaypoint;
    item.session.dynamics.mobility.speed_min_mps = 3.0;
    item.session.dynamics.mobility.speed_max_mps = 8.0;
    item.session.dynamics.mobility.pause_s = 0.5;
  }
  item.session.dynamics.evolution.env_doppler_hz = cfg.env_doppler_hz;
  item.session.dynamics.churn.flow_arrival_hz = cfg.flow_arrival_hz;
  item.session.dynamics.churn.flow_departure_hz = cfg.flow_departure_hz;
  item.session.dynamics.churn.node_leave_hz = cfg.node_leave_hz;
  item.session.dynamics.churn.node_return_hz = cfg.node_return_hz;
  item.session.dynamics.use_rate_control = cfg.rate_control;
  return item;
}

// --- Canonical JSON ------------------------------------------------------

void json_session(std::string& out, const sim::SessionResult& s,
                  const char* indent, bool last) {
  using util::json_double;
  const auto& q = s.round_duration_q;
  out += indent;
  out += "{\"rounds\": " + std::to_string(s.rounds);
  out += ", \"duration_s\": " + json_double(s.duration_s);
  out += ", \"total_mbps\": " + json_double(s.total_mbps);
  out += ", \"goodput_mbps\": " + json_double(s.goodput_mbps);
  out += ", \"jain\": " + json_double(s.jain);
  out += ", \"joins_per_round\": " + json_double(s.mean_winners_per_round);
  out += ", \"streams_per_round\": " + json_double(s.mean_streams_per_round);
  out += ", \"idle_rounds\": " + std::to_string(s.idle_rounds);
  out += ", \"round_s\": {\"mean\": " + json_double(s.round_duration.mean());
  out += ", \"p50\": " + json_double(q.quantile(50.0));
  out += ", \"p95\": " + json_double(q.quantile(95.0));
  out += ", \"p99\": " + json_double(q.quantile(99.0));
  out += ", \"max\": " + json_double(q.max()) + "}}";
  out += last ? "\n" : ",\n";
}

constexpr const char* kUsage =
    "CONFIG.cfg [--out FILE] [--trace FILE] [--timing FILE] [--threads N] "
    "[--checkpoint FILE] [--resume FILE] [--checkpoint-every K] "
    "[--watchdog SECONDS] [--retries N] [--kill-after N]";

int run_bench(int argc, char** argv) {
  util::init_threads_from_cli(argc, argv, /*strict=*/true);
  sim::RunnerConfig rcfg;
  if (const auto v = util::take_option(argc, argv, "--checkpoint")) {
    rcfg.checkpoint_path = *v;
  }
  if (const auto v = util::take_option(argc, argv, "--resume")) {
    rcfg.checkpoint_path = *v;
    rcfg.resume = true;
  }
  if (const auto v =
          util::take_size_option(argc, argv, "--checkpoint-every")) {
    rcfg.checkpoint_every = *v;
  }
  if (const auto v = util::take_double_option(argc, argv, "--watchdog")) {
    rcfg.supervisor.watchdog_s = *v;
  }
  if (const auto v = util::take_size_option(argc, argv, "--retries")) {
    rcfg.supervisor.max_attempts = 1 + static_cast<int>(*v);
  }
  if (const auto v = util::take_size_option(argc, argv, "--kill-after")) {
    rcfg.kill_after = *v;
  }
  if (rcfg.kill_after > 0 && rcfg.checkpoint_path.empty()) {
    throw util::UsageError("--kill-after requires --checkpoint FILE");
  }
  const auto out_opt = util::take_option(argc, argv, "--out");
  const auto trace_opt = util::take_option(argc, argv, "--trace");
  const auto timing_opt = util::take_option(argc, argv, "--timing");
  util::reject_unknown_flags(argc, argv);
  if (argc != 2) {
    throw util::UsageError("expected exactly one config file argument");
  }
  const BenchConfig cfg = load_config(argv[1]);
  const std::string out_path =
      out_opt ? *out_opt : "BENCH_" + cfg.name + ".json";

  // Cartesian grid in config order: n_links (outer) x placement x fidelity,
  // worlds_per_point items each. This flat order IS the determinism
  // contract — item i always gets fork(i + 1) of the master seed.
  std::vector<Point> points;
  std::vector<sim::SweepItem> batch;
  for (const std::size_t n : cfg.n_links) {
    for (const std::string& pl : cfg.placement) {
      for (const std::string& fd : cfg.fidelity) {
        points.push_back({n, pl, fd, batch.size()});
        for (std::size_t w = 0; w < cfg.worlds_per_point; ++w) {
          batch.push_back(make_item(cfg, n, pl, fd));
        }
      }
    }
  }

  util::TraceCollector trace(batch.size(), cfg.ring_capacity);
  rcfg.trace = &trace;

  const double t0 = now_s();
  sim::CheckpointedRunner runner(batch, cfg.seed, rcfg);
  const sim::SweepOutcome outcome = runner.run();
  const double sweep_wall_s = now_s() - t0;

  if (outcome.resumed > 0) {
    std::printf("resumed %zu/%zu items from %s\n", outcome.resumed,
                outcome.results.size(), rcfg.checkpoint_path.c_str());
  }
  if (!outcome.report.all_ok()) {
    std::fputs(outcome.report.summary().c_str(), stderr);
  }

  // Merge the per-item rings into the global (worker, seq) timeline. The
  // merged bytes are a pure function of the per-item computations, so the
  // CRC below — and the optional NPTR file — are identical at any thread
  // count. Caveat: checkpoint-resumed items were not re-executed, so their
  // rings are empty on a resumed run.
  const std::vector<util::TraceRecord> merged = trace.merge();
  std::uint32_t trace_crc = 0;
  {
    util::ByteWriter w;
    for (const util::TraceRecord& rec : merged) {
      w.u32(rec.worker);
      w.u32(rec.type);
      w.u64(rec.seq);
      w.f64(rec.t);
      w.u64(rec.a);
      w.f64(rec.b);
    }
    trace_crc = util::crc32(w.data().data(), w.data().size());
  }
  if (trace_opt) util::write_trace_file(*trace_opt, merged);

  std::string js;
  js += "{\n  \"schema\": \"nplus-bench-v1\",\n";
  js += "  \"name\": \"" + util::json_escape(cfg.name) + "\",\n";
  js += "  \"seed\": " + std::to_string(cfg.seed) + ",\n";
  js += "  \"rounds\": " + std::to_string(cfg.rounds) + ",\n";
  js += "  \"worlds_per_point\": " + std::to_string(cfg.worlds_per_point) +
        ",\n";
  js += "  \"scheme\": \"" + util::json_escape(cfg.scheme) + "\",\n";
  js += "  \"complete\": ";
  js += outcome.complete() ? "true" : "false";
  js += ",\n  \"points\": [\n";
  for (std::size_t p = 0; p < points.size(); ++p) {
    const Point& pt = points[p];
    js += "    {\"n_links\": " + std::to_string(pt.n_links);
    js += ", \"placement\": \"" + util::json_escape(pt.placement) + "\"";
    js += ", \"fidelity\": \"" + util::json_escape(pt.fidelity) + "\"";
    js += ", \"sessions\": [\n";
    for (std::size_t w = 0; w < cfg.worlds_per_point; ++w) {
      json_session(js, outcome.results[pt.first_item + w], "      ",
                   w + 1 == cfg.worlds_per_point);
    }
    js += "    ]}";
    js += p + 1 < points.size() ? ",\n" : "\n";
  }
  js += "  ],\n";
  js += "  \"trace\": {\"records\": " + std::to_string(merged.size());
  js += ", \"dropped\": " + std::to_string(trace.total_dropped());
  js += ", \"crc32\": " + std::to_string(trace_crc) + "}\n}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  const bool wrote = std::fwrite(js.data(), 1, js.size(), f) == js.size();
  if (std::fclose(f) != 0 || !wrote) {
    std::fprintf(stderr, "short write to %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu points, %zu sessions, %zu trace records)\n",
              out_path.c_str(), points.size(), outcome.results.size(),
              merged.size());

  // Wall-clock timing: its own file, never the results JSON (the results
  // file must stay byte-identical across runs and thread counts).
  if (timing_opt) {
    std::FILE* tf = std::fopen(timing_opt->c_str(), "w");
    if (tf == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", timing_opt->c_str());
      return 1;
    }
    std::string tj = "{\"name\": \"" + util::json_escape(cfg.name) + "\"";
    tj += ", \"wall_s\": " + util::json_double(sweep_wall_s);
    tj += ", \"sessions\": " + std::to_string(outcome.results.size()) + "}\n";
    std::fwrite(tj.data(), 1, tj.size(), tf);
    std::fclose(tf);
  }
  std::printf("sweep wall clock: %.2f s\n", sweep_wall_s);

  return outcome.report.all_ok() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  return nplus::util::cli_main(argc, argv, kUsage, run_bench);
}
