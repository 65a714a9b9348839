// nplus-bench: the one sweep driver — every study is a config file, and
// every result has one canonical JSON schema.
//
// The large-scale n+ studies (topology scale, Doppler and churn, the
// abstraction's fidelity ladder, fault degradation) are config files in
// bench/configs/*.cfg, not binaries. This driver runs the sweep a config
// describes and emits the ONE schema (`nplus-bench-v1`); CI compares each
// smoke result with its checked-in baseline byte for byte.
//
//   ./nplus-bench CONFIG.cfg [--out FILE] [--trace FILE] [--timing FILE]
//                 [--threads N] [--checkpoint FILE] [--resume FILE]
//                 [--checkpoint-every K] [--watchdog SECONDS] [--retries N]
//                 [--kill-after N]
//
// Config format (bench/README.md is the key reference): `key = value`
// lines, '#' comments. Every key that sets a sweep-item field takes a comma
// list; the grid is the cartesian product of the list-valued keys, nested
// in the order they appear in the file (the first list is outermost), with
// `worlds_per_point` generated worlds per point. That flat order is the
// determinism contract: item i forks stream i of the master seed, or, with
// `paired = true`, world w of every point forks stream w (common random
// numbers: the same topology, world and session draws at every point).
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
// 3 (partial JSON), --checkpoint/--resume give kill-safe restarts that
// reproduce the uninterrupted JSON and trace byte for byte, and
// --kill-after N is the CI chaos hook (hard exit 42).

#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
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

// One parsed list element: the token it prints as in the JSON, and the
// value its setter reads (`word` for choices and booleans).
struct Value {
  std::string json;
  std::string word;
  double num = 0.0;
  std::size_t count = 0;
};

enum class Kind { kSize, kNumber, kBool, kChoice };

// A key that sets one sweep-item field; every such key takes a list.
struct ItemKey {
  const char* name;
  Kind kind;
  std::vector<std::string> choices;  // kChoice only
  void (*set)(sim::SweepItem&, const Value&);
};

using Item = sim::SweepItem;

const std::vector<ItemKey>& item_keys() {
  static const std::vector<ItemKey> keys = {
      {"n_links", Kind::kSize, {},
       [](Item& it, const Value& v) { it.gen.n_links = v.count; }},
      {"placement", Kind::kChoice, {"uniform", "clustered"},
       [](Item& it, const Value& v) {
         it.gen.placement = v.word == "clustered"
                                ? sim::PlacementMode::kClustered
                                : sim::PlacementMode::kUniform;
       }},
      {"fidelity", Kind::kChoice, {"abstracted", "full"},
       [](Item& it, const Value& v) {
         it.session.round.fidelity = v.word == "full"
                                         ? sim::Fidelity::kFullPhy
                                         : sim::Fidelity::kAbstracted;
       }},
      {"pattern", Kind::kChoice, {"peer", "ap"},
       [](Item& it, const Value& v) {
         it.gen.pattern = v.word == "ap" ? sim::LinkPattern::kApDownlink
                                         : sim::LinkPattern::kPeerPairs;
       }},
      {"scheme", Kind::kChoice, {"nplus", "dot11n"},
       [](Item& it, const Value& v) {
         it.session.scheme =
             v.word == "dot11n" ? sim::Scheme::kDot11n : sim::Scheme::kNplus;
       }},
      {"mobility", Kind::kChoice, {"static", "pedestrian", "fast"},
       [](Item& it, const Value& v) {
         sim::MobilityConfig& m = it.session.dynamics.mobility;
         if (v.word == "static") return;
         m.model = sim::MobilityModel::kRandomWaypoint;
         if (v.word == "fast") {
           m.speed_min_mps = 3.0;
           m.speed_max_mps = 8.0;
           m.pause_s = 0.5;
         }
       }},
      {"rounds", Kind::kSize, {},
       [](Item& it, const Value& v) { it.session.n_rounds = v.count; }},
      {"snapshot_every", Kind::kSize, {},
       [](Item& it, const Value& v) { it.session.snapshot_every = v.count; }},
      {"include_overheads", Kind::kBool, {},
       [](Item& it, const Value& v) {
         it.session.round.include_overheads = v.word == "true";
       }},
      {"lazy_channels", Kind::kBool, {},
       [](Item& it, const Value& v) {
         it.world.lazy_channels = v.word == "true";
       }},
      {"rate_control", Kind::kBool, {},
       [](Item& it, const Value& v) {
         it.session.dynamics.use_rate_control = v.word == "true";
       }},
      {"inter_round_gap_s", Kind::kNumber, {},
       [](Item& it, const Value& v) { it.session.inter_round_gap_s = v.num; }},
      {"env_doppler_hz", Kind::kNumber, {},
       [](Item& it, const Value& v) {
         it.session.dynamics.evolution.env_doppler_hz = v.num;
       }},
      {"flow_arrival_hz", Kind::kNumber, {},
       [](Item& it, const Value& v) {
         it.session.dynamics.churn.flow_arrival_hz = v.num;
       }},
      {"flow_departure_hz", Kind::kNumber, {},
       [](Item& it, const Value& v) {
         it.session.dynamics.churn.flow_departure_hz = v.num;
       }},
      {"node_leave_hz", Kind::kNumber, {},
       [](Item& it, const Value& v) {
         it.session.dynamics.churn.node_leave_hz = v.num;
       }},
      {"node_return_hz", Kind::kNumber, {},
       [](Item& it, const Value& v) {
         it.session.dynamics.churn.node_return_hz = v.num;
       }},
      {"header_loss_rate", Kind::kNumber, {},
       [](Item& it, const Value& v) {
         it.session.faults.header_loss_rate = v.num;
       }},
      {"ack_loss_rate", Kind::kNumber, {},
       [](Item& it, const Value& v) {
         it.session.faults.ack_loss_rate = v.num;
       }},
      {"node_outage_hz", Kind::kNumber, {},
       [](Item& it, const Value& v) {
         it.session.faults.node_outage_hz = v.num;
       }},
      {"node_recovery_hz", Kind::kNumber, {},
       [](Item& it, const Value& v) {
         it.session.faults.node_recovery_hz = v.num;
       }},
      {"mac_recovery", Kind::kBool, {},
       [](Item& it, const Value& v) {
         it.session.faults.mac_recovery = v.word == "true";
       }},
      {"header_fallback_defer", Kind::kBool, {},
       [](Item& it, const Value& v) {
         it.session.faults.header_fallback_defer = v.word == "true";
       }},
  };
  return keys;
}

Value parse_value(const ItemKey& key, const std::string& word) {
  Value v;
  v.word = word;
  switch (key.kind) {
    case Kind::kSize:
      v.count = parse_size(key.name, word);
      v.json = std::to_string(v.count);
      break;
    case Kind::kNumber:
      v.num = parse_double(key.name, word);
      v.json = util::json_double(v.num);
      break;
    case Kind::kBool:
      v.json = parse_bool(key.name, word) ? "true" : "false";
      break;
    case Kind::kChoice: {
      bool known = false;
      for (const std::string& c : key.choices) known = known || c == word;
      if (!known) {
        std::string msg = std::string(key.name) + ": unknown value '" + word +
                          "' (expected one of";
        for (const std::string& c : key.choices) msg += " " + c;
        bad_config(msg + ")");
      }
      v.json = "\"" + util::json_escape(word) + "\"";
      break;
    }
  }
  return v;
}

// An item key as the file set it; more than one value makes it a grid axis.
struct Setting {
  const ItemKey* key = nullptr;
  std::vector<Value> values;
};

struct BenchConfig {
  std::string name;
  std::uint64_t seed = 7;
  std::size_t worlds_per_point = 1;
  std::size_t ring_capacity = 512;
  bool paired = false;
  std::vector<Setting> settings;  // file order = grid nesting order

  bool is_axis(const std::string& key) const {
    for (const Setting& s : settings) {
      if (key == s.key->name) return s.values.size() > 1;
    }
    return false;
  }
};

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

  std::vector<std::string> seen;
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
    const std::string where = path + ":" + std::to_string(line_no) + ": ";
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) bad_config(where + "expected 'key = value'");
    const std::string key = trim(line.substr(0, eq));
    const std::string val = trim(line.substr(eq + 1));
    if (key.empty() || val.empty()) {
      bad_config(where + "expected 'key = value'");
    }
    for (const std::string& k : seen) {
      if (k == key) bad_config(where + "key '" + key + "' set twice");
    }
    seen.push_back(key);

    if (key == "name") {
      cfg.name = val;
    } else if (key == "seed") {
      cfg.seed = parse_size(key, val);
    } else if (key == "worlds_per_point") {
      cfg.worlds_per_point = parse_size(key, val);
    } else if (key == "ring_capacity") {
      cfg.ring_capacity = parse_size(key, val);
    } else if (key == "paired") {
      cfg.paired = parse_bool(key, val);
    } else {
      const ItemKey* item_key = nullptr;
      for (const ItemKey& k : item_keys()) {
        if (key == k.name) item_key = &k;
      }
      if (item_key == nullptr) {
        bad_config(where + "unknown key '" + key +
                   "' (see bench/README.md for the reference)");
      }
      Setting setting{item_key, {}};
      for (const std::string& word : split_list(val)) {
        setting.values.push_back(parse_value(*item_key, word));
      }
      cfg.settings.push_back(std::move(setting));
    }
  }
  if (cfg.worlds_per_point == 0) bad_config("worlds_per_point must be >= 1");
  return cfg;
}

// --- Sweep construction --------------------------------------------------

struct Point {
  std::string labels;          // the point's "key": value pairs
  std::size_t first_item = 0;  // index of its first session in the batch
  bool faults = false;         // its sessions report FaultStats
};

// The item every point starts from, before the config's keys apply.
sim::SweepItem base_item() {
  sim::SweepItem item;
  // Heterogeneous antenna mix biased toward the small radios a dense
  // deployment actually has.
  item.gen.tx_mix.weights = {0.35, 0.30, 0.20, 0.15};
  item.gen.rx_mix.weights = {0.35, 0.30, 0.20, 0.15};
  item.session.n_rounds = 40;
  item.session.snapshot_every = 0;
  return item;
}

// Expands the grid into one flat batch: points in odometer order (the last
// setting in the file varies fastest), `worlds_per_point` items each.
void build_sweep(const BenchConfig& cfg, std::vector<Point>& points,
                 std::vector<sim::SweepItem>& batch) {
  const std::vector<Setting>& settings = cfg.settings;
  std::vector<std::size_t> pick(settings.size(), 0);
  for (;;) {
    sim::SweepItem item = base_item();
    std::string axes;
    for (std::size_t k = 0; k < settings.size(); ++k) {
      const Setting& s = settings[k];
      const Value& v = s.values[pick[k]];
      s.key->set(item, v);
      const std::string name = s.key->name;
      if (s.values.size() > 1 && name != "n_links" && name != "placement" &&
          name != "fidelity") {
        axes += ", \"" + name + "\": " + v.json;
      }
    }
    // Constant node density above 100 links: the floor grows with
    // sqrt(n / 100), so a big world is a wider office, not a denser one.
    if (item.gen.n_links > 100) {
      const double scale =
          std::sqrt(static_cast<double>(item.gen.n_links) / 100.0);
      item.gen.area_w_m *= scale;
      item.gen.area_h_m *= scale;
    }
    if (item.session.n_rounds == 0) bad_config("rounds must be >= 1");
    try {
      item.gen.validate();
      item.session.validate();
    } catch (const std::invalid_argument& e) {
      bad_config(e.what());
    }

    Point pt;
    pt.labels = "\"n_links\": " + std::to_string(item.gen.n_links);
    pt.labels += item.gen.placement == sim::PlacementMode::kClustered
                     ? ", \"placement\": \"clustered\""
                     : ", \"placement\": \"uniform\"";
    pt.labels += item.session.round.fidelity == sim::Fidelity::kFullPhy
                     ? ", \"fidelity\": \"full\""
                     : ", \"fidelity\": \"abstracted\"";
    pt.labels += axes;
    pt.first_item = batch.size();
    pt.faults = item.session.faults.enabled();
    points.push_back(std::move(pt));
    for (std::size_t w = 0; w < cfg.worlds_per_point; ++w) {
      if (cfg.paired) item.stream = w;
      batch.push_back(item);
    }

    std::size_t k = settings.size();
    while (k > 0 && ++pick[k - 1] == settings[k - 1].values.size()) {
      pick[--k] = 0;
    }
    if (k == 0) return;
  }
}

// --- Canonical JSON ------------------------------------------------------

void json_session(std::string& out, const sim::SessionResult& s,
                  bool faults, bool last) {
  using util::json_double;
  const auto& q = s.round_duration_q;
  out += "      {\"rounds\": " + std::to_string(s.rounds);
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
  out += ", \"max\": " + json_double(q.max()) + "}";
  if (faults) {
    const sim::FaultStats& f = s.faults;
    out += ", \"faults\": {\"frames_completed\": " +
           std::to_string(f.frames_completed);
    out += ", \"frames_dropped\": " + std::to_string(f.frames_dropped);
    out += ", \"retransmissions\": " + std::to_string(f.retransmissions);
    out += ", \"ack_losses\": " + std::to_string(f.ack_losses);
    out += ", \"header_deferrals\": " + std::to_string(f.header_deferrals);
    out += ", \"blind_joins\": " + std::to_string(f.blind_joins);
    out += ", \"outages\": " + std::to_string(f.outages);
    out += ", \"degenerate_esnr\": " + std::to_string(f.degenerate_esnr);
    out += ", \"drop_rate\": " + json_double(f.drop_rate()) + "}";
  }
  out += last ? "}\n" : "},\n";
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
    if (*v == 0) throw util::UsageError("--checkpoint-every must be >= 1");
    rcfg.checkpoint_every = *v;
  }
  if (const auto v = util::take_double_option(argc, argv, "--watchdog")) {
    // 0 turns the watchdog off; a negative or NaN value would too, and an
    // infinite one would never fire, so neither passes as a budget.
    if (!std::isfinite(*v) || *v < 0.0) {
      throw util::UsageError(
          "--watchdog needs a finite number of seconds >= 0 (0 = off)");
    }
    rcfg.supervisor.watchdog_s = *v;
  }
  if (const auto v = util::take_size_option(argc, argv, "--retries")) {
    // max_attempts is an int holding 1 + N.
    if (*v >= static_cast<std::size_t>(std::numeric_limits<int>::max())) {
      throw util::UsageError("--retries must be below " +
                             std::to_string(std::numeric_limits<int>::max()));
    }
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

  std::vector<Point> points;
  std::vector<sim::SweepItem> batch;
  build_sweep(cfg, points, batch);

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
  // count, and on a resumed run.
  const std::vector<util::TraceRecord> merged = trace.merge();
  std::uint32_t trace_crc = 0;
  {
    util::ByteWriter w;
    util::write_trace_records(merged, w);
    // The CRC covers the records alone, not the u64 count before them.
    trace_crc = util::crc32(w.data().data() + 8, w.data().size() - 8);
  }
  if (trace_opt) util::write_trace_file(*trace_opt, merged);

  std::string js;
  js += "{\n  \"schema\": \"nplus-bench-v1\",\n";
  js += "  \"name\": \"" + util::json_escape(cfg.name) + "\",\n";
  js += "  \"seed\": " + std::to_string(cfg.seed) + ",\n";
  // A key that is a grid axis is named per point instead.
  if (!cfg.is_axis("rounds")) {
    js += "  \"rounds\": " + std::to_string(batch[0].session.n_rounds) +
          ",\n";
  }
  js += "  \"worlds_per_point\": " + std::to_string(cfg.worlds_per_point) +
        ",\n";
  if (!cfg.is_axis("scheme")) {
    js += batch[0].session.scheme == sim::Scheme::kDot11n
              ? "  \"scheme\": \"dot11n\",\n"
              : "  \"scheme\": \"nplus\",\n";
  }
  js += "  \"complete\": ";
  js += outcome.complete() ? "true" : "false";
  js += ",\n  \"points\": [\n";
  for (std::size_t p = 0; p < points.size(); ++p) {
    const Point& pt = points[p];
    js += "    {" + pt.labels + ", \"sessions\": [\n";
    for (std::size_t w = 0; w < cfg.worlds_per_point; ++w) {
      json_session(js, outcome.results[pt.first_item + w], pt.faults,
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
