// Dual-fidelity scaling benchmark: what the eSNR -> PER abstraction buys.
//
// Part 1 — presets, both fidelity levels. Every pinned preset runs a
//   multi-round DCF session twice under identical forked RNG streams:
//   once with full-PHY delivery scoring (every stream's payload pushed
//   through the real codec chain), once with the calibrated abstraction.
//   The protocol traces must match exactly (checked; the run fails
//   otherwise); the report records the throughput agreement and the
//   wall-clock speedup.
//
// Part 2 — the 100-pair world across the fidelity ladder. The reference
//   configuration is the fully materialized (eager) world — realized-fading
//   link SNRs, every tx-rx pair's 48 subcarrier channels drawn up front —
//   with full-PHY delivery scoring; the fast path is the lazy link-budget
//   world with abstracted scoring. Both axes are abstractions this PR
//   validates (fidelity agreement tests for the scorer, determinism/
//   consistency tests for the lazy world), and the report breaks the
//   end-to-end speedup into its components: world build and per-round
//   scoring (the latter measured on the SAME lazy world in both modes,
//   where the protocol traces are identical by construction).
//
// Part 3 — abstracted-mode scale sweep, N in {100, 250, 500} pairs on
//   lazy worlds (WorldConfig::lazy_channels) with the floor area scaled to
//   keep node density constant: the regime the abstraction unlocks (an
//   eager 500-pair world would need ~10 GB of channel matrices; lazy
//   materialization touches only the pairs rounds actually read).
//
//   ./fidelity_scale [output.json] [--smoke]
//
// Unlike BENCH_scale.json (bit-identical across thread counts), this
// file's point IS the wall clock: timings vary run to run, simulation
// results do not (everything is seeded).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sim/scenario_gen.h"
#include "sim/session.h"
#include "util/cli.h"

namespace {

using namespace nplus;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct ModeRun {
  sim::SessionResult result;
  double wall_s = 0.0;
};

struct DualRun {
  ModeRun abstracted;
  ModeRun full_phy;
  bool trace_identical = false;
  double speedup() const {
    return abstracted.wall_s > 0.0 ? full_phy.wall_s / abstracted.wall_s
                                   : 0.0;
  }
  double agreement() const {
    return full_phy.result.total_mbps > 0.0
               ? abstracted.result.total_mbps / full_phy.result.total_mbps
               : 0.0;
  }
};

DualRun run_dual(const sim::GeneratedTopology& topo,
                 const sim::WorldConfig& wcfg, std::uint64_t seed,
                 std::size_t n_rounds) {
  DualRun out;
  for (int mode = 0; mode < 2; ++mode) {
    util::Rng rng(seed);
    util::Rng world_rng = rng.fork(11);
    util::Rng session_rng = rng.fork(12);
    sim::World world = sim::make_world(topo, world_rng, wcfg);
    sim::SessionConfig cfg;
    cfg.n_rounds = n_rounds;
    // Periodic snapshots double as an order-sensitive trace probe below.
    cfg.snapshot_every = std::max<std::size_t>(n_rounds / 4, 1);
    cfg.round.fidelity =
        mode == 0 ? sim::Fidelity::kAbstracted : sim::Fidelity::kFullPhy;
    ModeRun& slot = mode == 0 ? out.abstracted : out.full_phy;
    const double t0 = now_s();
    slot.result = sim::run_session(world, topo.scenario, session_rng, cfg);
    slot.wall_s = now_s() - t0;
  }
  // Cross-mode protocol-trace check. SessionResult retains no per-round
  // log, so this compares every order-sensitive structural observable it
  // does keep: aggregate counts, the round-airtime distribution
  // (mean/min/max/stddev), and the sim-clock timestamp of every periodic
  // snapshot — a reordering of rounds with equal totals shifts the
  // cumulative clock at some snapshot. (The EXACT per-round winner/rate
  // equality is enforced on presets by tests/test_fidelity.cc.)
  const sim::SessionResult& a = out.abstracted.result;
  const sim::SessionResult& p = out.full_phy.result;
  out.trace_identical =
      a.rounds == p.rounds && a.duration_s == p.duration_s &&
      a.mean_winners_per_round == p.mean_winners_per_round &&
      a.mean_streams_per_round == p.mean_streams_per_round &&
      a.round_duration.mean() == p.round_duration.mean() &&
      a.round_duration.min() == p.round_duration.min() &&
      a.round_duration.max() == p.round_duration.max() &&
      a.round_duration.stddev() == p.round_duration.stddev() &&
      a.series.size() == p.series.size();
  for (std::size_t i = 0; out.trace_identical && i < a.series.size(); ++i) {
    out.trace_identical = a.series[i].t_s == p.series[i].t_s &&
                          a.series[i].rounds == p.series[i].rounds &&
                          a.series[i].join_rate == p.series[i].join_rate;
  }
  return out;
}

sim::GenConfig scaled_gen(std::size_t n_links) {
  sim::GenConfig g;
  g.n_links = n_links;
  g.tx_mix.weights = {0.35, 0.30, 0.20, 0.15};
  g.rx_mix.weights = {0.35, 0.30, 0.20, 0.15};
  // Constant node density above the 100-pair baseline floor.
  if (n_links > 100) {
    const double scale =
        std::sqrt(static_cast<double>(n_links) / 100.0);
    g.area_w_m *= scale;
    g.area_h_m *= scale;
  }
  return g;
}

void json_mode(FILE* f, const char* name, const ModeRun& m,
               const char* indent) {
  std::fprintf(f,
               "%s\"%s\": {\"wall_s\": %.6g, \"total_mbps\": %.9g, "
               "\"jain\": %.9g, \"joins_per_round\": %.9g}",
               indent, name, m.wall_s, m.result.total_mbps, m.result.jain,
               m.result.mean_winners_per_round);
}

constexpr const char* kUsage = "[output.json] [--threads N] [--smoke]";

int run_bench(int argc, char** argv) {
  util::init_threads_from_cli(argc, argv, /*strict=*/true);
  const bool smoke = util::take_flag(argc, argv, "--smoke");
  util::reject_unknown_flags(argc, argv);
  if (argc > 2) {
    throw util::UsageError("expected at most one positional argument "
                           "(the output path)");
  }
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_fidelity.json";
  const std::uint64_t kSeed = 42;
  bool all_traces_identical = true;

  // --- Part 1: presets at both fidelity levels --------------------------
  struct PresetRun {
    sim::Preset preset;
    DualRun dual;
  };
  std::vector<PresetRun> presets;
  const std::size_t preset_rounds = smoke ? 24 : 120;
  for (const auto preset :
       {sim::Preset::kThreePair, sim::Preset::kHiddenTerminal,
        sim::Preset::kExposedTerminal, sim::Preset::kDenseCell}) {
    util::Rng rng(kSeed);
    const sim::GeneratedTopology topo = sim::make_preset(preset, rng);
    const DualRun dual = run_dual(topo, {}, kSeed, preset_rounds);
    all_traces_identical = all_traces_identical && dual.trace_identical;
    std::printf("preset %-16s | abs %7.3f Mb/s %6.3fs | phy %7.3f Mb/s "
                "%6.3fs | agree %.3f speedup %5.1fx trace %s\n",
                sim::preset_name(preset), dual.abstracted.result.total_mbps,
                dual.abstracted.wall_s, dual.full_phy.result.total_mbps,
                dual.full_phy.wall_s, dual.agreement(), dual.speedup(),
                dual.trace_identical ? "ok" : "MISMATCH");
    presets.push_back({preset, dual});
  }

  // --- Part 2: the 100-pair world across the fidelity ladder ------------
  sim::WorldConfig lazy;
  lazy.lazy_channels = true;
  DualRun big;                  // lazy world, abstracted vs full-PHY
  ModeRun reference;            // eager world + full-PHY: the reference
  double reference_build_s = 0.0;
  double fast_build_s = 0.0;
  const std::size_t big_rounds = smoke ? 12 : 32;
  {
    util::Rng rng(kSeed);
    util::Rng topo_rng = rng.fork(1);
    const sim::GeneratedTopology topo =
        sim::generate_topology(scaled_gen(100), topo_rng);

    // Scoring-only comparison: identical lazy world, identical streams.
    big = run_dual(topo, lazy, kSeed, big_rounds);
    fast_build_s = 0.0;  // lazy worlds defer all drawing into the rounds
    all_traces_identical = all_traces_identical && big.trace_identical;

    // Reference: the eager world (realized-fading SNRs, all pairs drawn
    // up front) scored through the full codec chain.
    util::Rng ref_rng(kSeed);
    util::Rng ref_world_rng = ref_rng.fork(11);
    util::Rng ref_session_rng = ref_rng.fork(12);
    double t0 = now_s();
    sim::World ref_world = sim::make_world(topo, ref_world_rng);
    reference_build_s = now_s() - t0;
    sim::SessionConfig ref_cfg;
    ref_cfg.n_rounds = big_rounds;
    ref_cfg.snapshot_every = 0;
    ref_cfg.round.fidelity = sim::Fidelity::kFullPhy;
    t0 = now_s();
    reference.result = sim::run_session(ref_world, topo.scenario,
                                        ref_session_rng, ref_cfg);
    reference.wall_s = now_s() - t0;

    std::printf("100-pair scoring  | abs %7.3f Mb/s %6.3fs | phy %7.3f "
                "Mb/s %6.3fs | agree %.3f speedup %5.1fx trace %s\n",
                big.abstracted.result.total_mbps, big.abstracted.wall_s,
                big.full_phy.result.total_mbps, big.full_phy.wall_s,
                big.agreement(), big.speedup(),
                big.trace_identical ? "ok" : "MISMATCH");
    std::printf("100-pair e2e      | reference (eager world + full PHY) "
                "%.3fs build + %.3fs rounds | fast path %.3fs | %5.1fx\n",
                reference_build_s, reference.wall_s,
                big.abstracted.wall_s,
                (reference_build_s + reference.wall_s) /
                    (fast_build_s + big.abstracted.wall_s));
  }

  // --- Part 3: abstracted scale sweep on lazy worlds --------------------
  struct ScalePoint {
    std::size_t n_links;
    std::size_t rounds;
    ModeRun run;
    double world_build_s = 0.0;
  };
  std::vector<ScalePoint> scale;
  struct Cfg {
    std::size_t n, rounds;
  };
  std::vector<Cfg> cfgs = {{100, 48}, {250, 32}, {500, 24}};
  if (smoke) cfgs = {{100, 8}, {250, 6}, {500, 4}};
  for (const Cfg& c : cfgs) {
    util::Rng rng(kSeed);
    util::Rng topo_rng = rng.fork(1);
    util::Rng world_rng = rng.fork(2);
    util::Rng session_rng = rng.fork(3);
    const sim::GeneratedTopology topo =
        sim::generate_topology(scaled_gen(c.n), topo_rng);
    ScalePoint pt;
    pt.n_links = c.n;
    pt.rounds = c.rounds;
    double t0 = now_s();
    sim::World world = sim::make_world(topo, world_rng, lazy);
    pt.world_build_s = now_s() - t0;
    sim::SessionConfig cfg;
    cfg.n_rounds = c.rounds;
    cfg.snapshot_every = 0;
    t0 = now_s();
    pt.run.result =
        sim::run_session(world, topo.scenario, session_rng, cfg);
    pt.run.wall_s = now_s() - t0;
    std::printf("N=%3zu abstracted  | %7.3f Mb/s  jain %.3f  joins %.2f | "
                "world %.4fs session %.3fs (%zu rounds)\n",
                c.n, pt.run.result.total_mbps, pt.run.result.jain,
                pt.run.result.mean_winners_per_round, pt.world_build_s,
                pt.run.wall_s, c.rounds);
    scale.push_back(std::move(pt));
  }

  // --- Report ------------------------------------------------------------
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"fidelity_scale\",\n");
  std::fprintf(f, "  \"seed\": %llu,\n  \"smoke\": %s,\n",
               static_cast<unsigned long long>(kSeed),
               smoke ? "true" : "false");
  std::fprintf(f, "  \"presets\": [\n");
  for (std::size_t i = 0; i < presets.size(); ++i) {
    const DualRun& d = presets[i].dual;
    std::fprintf(f, "    {\"name\": \"%s\", \"rounds\": %zu,\n",
                 sim::preset_name(presets[i].preset), preset_rounds);
    json_mode(f, "abstracted", d.abstracted, "     ");
    std::fprintf(f, ",\n");
    json_mode(f, "full_phy", d.full_phy, "     ");
    std::fprintf(f,
                 ",\n     \"throughput_ratio\": %.6g, \"speedup\": %.4g, "
                 "\"trace_identical\": %s}%s\n",
                 d.agreement(), d.speedup(),
                 d.trace_identical ? "true" : "false",
                 i + 1 < presets.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"world_100_pair\": {\n    \"rounds\": %zu,\n",
               big_rounds);
  json_mode(f, "abstracted", big.abstracted, "    ");
  std::fprintf(f, ",\n");
  json_mode(f, "full_phy", big.full_phy, "    ");
  std::fprintf(f, ",\n");
  json_mode(f, "reference_eager_full_phy", reference, "    ");
  const double e2e_speedup =
      (reference_build_s + reference.wall_s) /
      (fast_build_s + big.abstracted.wall_s);
  std::fprintf(
      f,
      ",\n    \"reference_world_build_s\": %.6g,\n"
      "    \"throughput_ratio\": %.6g,\n"
      "    \"scoring_speedup\": %.4g,\n"
      "    \"fast_path_speedup\": %.4g,\n"
      "    \"trace_identical\": %s\n  },\n",
      reference_build_s, big.agreement(), big.speedup(), e2e_speedup,
      big.trace_identical ? "true" : "false");
  std::fprintf(f, "  \"abstracted_scale\": [\n");
  for (std::size_t i = 0; i < scale.size(); ++i) {
    const ScalePoint& p = scale[i];
    std::fprintf(f,
                 "    {\"n_links\": %zu, \"rounds\": %zu, "
                 "\"world_build_s\": %.6g, \"session_wall_s\": %.6g, "
                 "\"total_mbps\": %.9g, \"jain\": %.9g, "
                 "\"joins_per_round\": %.9g}%s\n",
                 p.n_links, p.rounds, p.world_build_s, p.run.wall_s,
                 p.run.result.total_mbps, p.run.result.jain,
                 p.run.result.mean_winners_per_round,
                 i + 1 < scale.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"all_traces_identical\": %s\n}\n",
               all_traces_identical ? "true" : "false");
  std::fclose(f);
  std::printf("100-pair fast-path speedup: %.1fx end-to-end "
              "(%.1fx scoring-only)\nwrote %s\n",
              e2e_speedup, big.speedup(), out_path.c_str());
  return all_traces_identical ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  return nplus::util::cli_main(argc, argv, kUsage, run_bench);
}
