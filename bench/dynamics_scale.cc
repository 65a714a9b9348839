// Dynamic-network scaling benchmark: Doppler x churn x N.
//
// Static sessions answer "what does a frozen placement deliver?"; this
// driver answers "what survives when the cell is alive?". Sessions space
// their transmission opportunities with a 20 ms application gap, so a
// 40-round session spans ~1 s of sim time — enough for pedestrian motion
// to move path loss, for Gauss-Markov tap evolution to age CSI between
// opportunities, and for Poisson flow/node churn to reshape the offered
// load.
//
// Part 1 — Doppler x churn grid at N = 25 peer pairs (lazy worlds,
//   abstracted scoring): every combination of {static, 5 Hz environmental
//   Doppler, pedestrian RWP, fast RWP} x {no churn, flow churn, flow+node
//   churn}. The static/no-churn corner is the PR-4 baseline; everything
//   else prices a dynamics axis in throughput/fairness/idle time.
//
// Part 2 — rate adaptation under mobility: oracle eSNR selection vs the
//   history-driven AARF controller on a pedestrian three-pair cell, both
//   delivery-scoring fidelities (the cross-validation the abstraction
//   owes: AARF feedback loops are realization-driven, so the two modes
//   diverge per-round but must agree statistically).
//
// Part 3 — scale: mobile + churning lazy worlds at N in {50, 100, 250}
//   pairs (smoke: a 100-pair world sized for CI).
//
//   ./dynamics_scale [output.json] [--smoke] [--threads N]
//
// Parts 1 and 3 evaluate items in parallel via sim::CheckpointedRunner
// (per-item streams forked before dispatch); the JSON contains only
// simulation results, never timings, so its bytes are identical for any
// --threads value — CI diffs 1/2/N. Wall-clock goes to stdout.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/checkpoint_runner.h"
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

// Runs one sweep on the global pool; a quarantined item aborts the bench
// (cli_main reports it and exits 1) instead of publishing a zeroed slot.
std::vector<sim::SessionResult> run_sweep(
    const std::vector<sim::SweepItem>& items, std::uint64_t seed) {
  sim::SweepOutcome out = sim::CheckpointedRunner(items, seed, {}).run();
  if (!out.complete()) throw std::runtime_error(out.report.summary());
  return std::move(out.results);
}

struct DopplerAxis {
  const char* name;
  sim::MobilityModel model;
  double speed_min, speed_max;
  double env_doppler_hz;
};

struct ChurnAxis {
  const char* name;
  sim::ChurnConfig churn;
};

sim::ChurnConfig flow_churn() {
  sim::ChurnConfig c;
  c.flow_arrival_hz = 1.5;
  c.flow_departure_hz = 1.0;
  return c;
}

sim::ChurnConfig full_churn() {
  sim::ChurnConfig c = flow_churn();
  c.node_leave_hz = 0.3;
  c.node_return_hz = 1.0;
  return c;
}

sim::SessionConfig dynamic_session(std::size_t n_rounds,
                                   const DopplerAxis& dop,
                                   const sim::ChurnConfig& churn) {
  sim::SessionConfig cfg;
  cfg.n_rounds = n_rounds;
  // Application-level inter-arrival gap: transmission opportunities every
  // ~20 ms, so a session spans enough wall-clock for dynamics to matter.
  cfg.inter_round_gap_s = 0.02;
  cfg.snapshot_every = 0;
  cfg.dynamics.mobility.model = dop.model;
  cfg.dynamics.mobility.speed_min_mps = dop.speed_min;
  cfg.dynamics.mobility.speed_max_mps = dop.speed_max;
  // 30% of radios are infrastructure-like and never move (role-blind
  // draw; see MobilityConfig::mobile_fraction).
  cfg.dynamics.mobility.mobile_fraction = 0.7;
  cfg.dynamics.evolution.env_doppler_hz = dop.env_doppler_hz;
  cfg.dynamics.churn = churn;
  return cfg;
}

void json_result(FILE* f, const sim::SessionResult& r, const char* indent) {
  std::fprintf(f,
               "%s\"rounds\": %zu, \"idle_rounds\": %zu, "
               "\"duration_s\": %.9g, \"total_mbps\": %.9g, "
               "\"jain\": %.9g, \"joins_per_round\": %.9g, "
               "\"mean_active_links\": %.9g",
               indent, r.rounds, r.idle_rounds, r.duration_s, r.total_mbps,
               r.jain, r.mean_winners_per_round, r.mean_active_links);
}

constexpr const char* kUsage = "[output.json] [--threads N] [--smoke]";

int run_bench(int argc, char** argv) {
  const std::size_t n_threads =
      util::init_threads_from_cli(argc, argv, /*strict=*/true);
  const bool smoke = util::take_flag(argc, argv, "--smoke");
  util::reject_unknown_flags(argc, argv);
  if (argc > 2) {
    throw util::UsageError("expected at most one positional argument "
                           "(the output path)");
  }
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_dynamics.json";
  const std::uint64_t kSeed = 1234;

  const std::vector<DopplerAxis> doppler_axes = {
      {"static", sim::MobilityModel::kStatic, 0.0, 0.0, 0.0},
      {"env_5hz", sim::MobilityModel::kStatic, 0.0, 0.0, 5.0},
      {"pedestrian", sim::MobilityModel::kRandomWaypoint, 0.8, 1.9, 2.0},
      {"fast", sim::MobilityModel::kClusteredHotspot, 3.0, 6.0, 5.0},
  };
  const std::vector<ChurnAxis> churn_axes = {
      {"none", {}},
      {"flows", flow_churn()},
      {"flows_nodes", full_churn()},
  };

  // --- Part 1: Doppler x churn grid at N = 25 ---------------------------
  const std::size_t grid_rounds = smoke ? 10 : 40;
  const std::size_t grid_pairs = 25;
  std::vector<sim::SweepItem> grid_items;
  std::vector<std::string> grid_names;
  for (const auto& dop : doppler_axes) {
    for (const auto& ch : churn_axes) {
      sim::SweepItem item;
      item.gen.n_links = grid_pairs;
      item.gen.tx_mix.weights = {0.35, 0.30, 0.20, 0.15};
      item.gen.rx_mix.weights = {0.35, 0.30, 0.20, 0.15};
      item.world.lazy_channels = true;
      item.session = dynamic_session(grid_rounds, dop, ch.churn);
      grid_items.push_back(item);
      grid_names.push_back(std::string(dop.name) + "/" + ch.name);
    }
  }
  double t0 = now_s();
  const auto grid = run_sweep(grid_items, kSeed);
  const double grid_wall = now_s() - t0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    std::printf("grid %-22s | %7.3f Mb/s jain %.3f joins %.2f "
                "active %.1f idle %zu\n",
                grid_names[i].c_str(), grid[i].total_mbps, grid[i].jain,
                grid[i].mean_winners_per_round, grid[i].mean_active_links,
                grid[i].idle_rounds);
  }
  std::printf("part 1 (%zu cells, %zu threads): %.2fs\n", grid.size(),
              n_threads, grid_wall);

  // --- Part 2: oracle vs AARF, both fidelities --------------------------
  // Serial by construction (4 sessions); results identical per seed.
  struct RateRun {
    const char* policy;
    const char* fidelity;
    sim::SessionResult result;
  };
  std::vector<RateRun> rate_runs;
  const std::size_t rate_rounds = smoke ? 30 : 120;
  for (int use_aarf = 0; use_aarf < 2; ++use_aarf) {
    for (int mode = 0; mode < 2; ++mode) {
      util::Rng topo_rng(kSeed);
      const sim::GeneratedTopology topo =
          sim::make_preset(sim::Preset::kThreePair, topo_rng);
      sim::SessionConfig cfg = dynamic_session(
          rate_rounds, doppler_axes[2] /* pedestrian */, {});
      cfg.dynamics.use_rate_control = use_aarf != 0;
      cfg.round.fidelity = mode == 0 ? sim::Fidelity::kAbstracted
                                     : sim::Fidelity::kFullPhy;
      util::Rng world_rng(kSeed + 1);
      util::Rng session_rng(kSeed + 2);
      sim::World world = sim::make_world(topo, world_rng);
      RateRun run;
      run.policy = use_aarf ? "aarf" : "oracle";
      run.fidelity = mode == 0 ? "abstracted" : "full_phy";
      const double t1 = now_s();
      run.result = sim::run_session(world, topo.scenario, session_rng, cfg);
      std::printf("rate %-6s %-10s | %7.3f Mb/s jain %.3f (%.2fs)\n",
                  run.policy, run.fidelity, run.result.total_mbps,
                  run.result.jain, now_s() - t1);
      rate_runs.push_back(std::move(run));
    }
  }

  // --- Part 3: mobile + churning scale sweep ----------------------------
  struct ScaleCfg {
    std::size_t n, rounds;
  };
  std::vector<ScaleCfg> scale_cfgs = {{50, 32}, {100, 24}, {250, 16}};
  if (smoke) scale_cfgs = {{100, 8}};
  std::vector<sim::SweepItem> scale_items;
  for (const ScaleCfg& c : scale_cfgs) {
    sim::SweepItem item;
    item.gen.n_links = c.n;
    item.gen.tx_mix.weights = {0.35, 0.30, 0.20, 0.15};
    item.gen.rx_mix.weights = {0.35, 0.30, 0.20, 0.15};
    if (c.n > 100) {
      const double scale = std::sqrt(static_cast<double>(c.n) / 100.0);
      item.gen.area_w_m *= scale;
      item.gen.area_h_m *= scale;
    }
    item.world.lazy_channels = true;
    item.session =
        dynamic_session(c.rounds, doppler_axes[2], full_churn());
    scale_items.push_back(item);
  }
  t0 = now_s();
  const auto scale = run_sweep(scale_items, kSeed + 7);
  const double scale_wall = now_s() - t0;
  for (std::size_t i = 0; i < scale.size(); ++i) {
    std::printf("N=%3zu mobile+churn  | %8.3f Mb/s jain %.3f joins %.2f "
                "active %.1f/%zu idle %zu\n",
                scale_cfgs[i].n, scale[i].total_mbps, scale[i].jain,
                scale[i].mean_winners_per_round,
                scale[i].mean_active_links, scale_cfgs[i].n,
                scale[i].idle_rounds);
  }
  std::printf("part 3 (%zu worlds): %.2fs\n", scale.size(), scale_wall);

  // --- Report (simulation results only: byte-identical across threads) --
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"dynamics_scale\",\n");
  std::fprintf(f, "  \"seed\": %llu,\n  \"smoke\": %s,\n",
               static_cast<unsigned long long>(kSeed),
               smoke ? "true" : "false");
  std::fprintf(f, "  \"doppler_churn_grid\": [\n");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    std::fprintf(f, "    {\"cell\": \"%s\", \"n_links\": %zu,\n",
                 grid_names[i].c_str(), grid_pairs);
    json_result(f, grid[i], "     ");
    std::fprintf(f, "}%s\n", i + 1 < grid.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"rate_adaptation\": [\n");
  for (std::size_t i = 0; i < rate_runs.size(); ++i) {
    std::fprintf(f, "    {\"policy\": \"%s\", \"fidelity\": \"%s\",\n",
                 rate_runs[i].policy, rate_runs[i].fidelity);
    json_result(f, rate_runs[i].result, "     ");
    std::fprintf(f, "}%s\n", i + 1 < rate_runs.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"scale\": [\n");
  for (std::size_t i = 0; i < scale.size(); ++i) {
    std::fprintf(f, "    {\"n_links\": %zu,\n", scale_cfgs[i].n);
    json_result(f, scale[i], "     ");
    std::fprintf(f, "}%s\n", i + 1 < scale.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return nplus::util::cli_main(argc, argv, kUsage, run_bench);
}
