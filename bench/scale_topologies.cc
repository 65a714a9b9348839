// Topology-scale sweep: how does n+ behave far beyond the paper's two
// hand-built scenarios?
//
// Sweeps generated random worlds at N ∈ {3, 10, 25, 50, 100} contending
// pairs — heterogeneous 1-4-antenna nodes, uniform and clustered placement —
// running a multi-round DCF session (sim::run_session) per world, with the
// (N, world) items evaluated in parallel on the ThreadPool, plus one session
// per named stress preset. Writes BENCH_scale.json.
//
//   ./scale_topologies [output.json] [--threads N] [--smoke]
//                      [--checkpoint FILE] [--checkpoint-every K]
//                      [--resume FILE] [--watchdog SECONDS] [--retries N]
//                      [--kill-after N]
//
// The sweep runs under sim::CheckpointedRunner: a throwing/hung item is
// quarantined (exit 3, report on stderr) instead of aborting the bench,
// --checkpoint persists completed items so --resume FILE restarts a killed
// sweep where it died, and --kill-after N is the CI chaos hook (hard-exit
// 42 once N items are checkpointed). A resumed run's JSON is byte-identical
// to an uninterrupted one.
//
// Determinism: every item's randomness is forked from the master seed before
// dispatch (sim::CheckpointedRunner), and the JSON contains only
// simulation results — no wall-clock or thread-count fields — so the output
// file is bit-identical for --threads 1, 2, or N. Timing goes to stdout.
// --smoke shrinks the sweep (N <= 10, few rounds) for CI.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sim/checkpoint_runner.h"
#include "sim/scenario_gen.h"
#include "sim/session.h"
#include "util/cli.h"

namespace {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SweepPoint {
  std::size_t n_links = 0;
  const char* placement = "uniform";
  std::size_t n_worlds = 0;
  std::size_t rounds = 0;
  std::vector<nplus::sim::SessionResult> sessions;  // one per world
};

nplus::sim::SweepItem make_item(std::size_t n_links,
                                nplus::sim::PlacementMode placement,
                                std::size_t rounds) {
  nplus::sim::SweepItem item;
  item.gen.n_links = n_links;
  item.gen.placement = placement;
  // Heterogeneous antenna mix, biased toward the small radios a dense
  // deployment actually has.
  item.gen.tx_mix.weights = {0.35, 0.30, 0.20, 0.15};
  item.gen.rx_mix.weights = {0.35, 0.30, 0.20, 0.15};
  item.session.n_rounds = rounds;
  item.session.snapshot_every = rounds >= 40 ? rounds / 4 : 0;
  item.session.round.include_overheads = true;
  return item;
}

void print_point(const SweepPoint& p) {
  nplus::util::RunningStats mbps, jain, join;
  for (const auto& s : p.sessions) {
    mbps.add(s.total_mbps);
    jain.add(s.jain);
    join.add(s.mean_winners_per_round);
  }
  std::printf("N=%3zu %-9s worlds=%zu rounds=%3zu | total %7.2f Mb/s "
              "(min %6.2f max %6.2f)  jain %.3f  joins/round %.2f\n",
              p.n_links, p.placement, p.n_worlds, p.rounds, mbps.mean(),
              mbps.min(), mbps.max(), jain.mean(), join.mean());
}

void json_session(FILE* f, const nplus::sim::SessionResult& s,
                  const char* indent, bool last) {
  std::fprintf(f,
               "%s{\"rounds\": %zu, \"duration_s\": %.9g, "
               "\"total_mbps\": %.9g, \"jain\": %.9g, "
               "\"joins_per_round\": %.9g, \"streams_per_round\": %.9g}%s\n",
               indent, s.rounds, s.duration_s, s.total_mbps, s.jain,
               s.mean_winners_per_round, s.mean_streams_per_round,
               last ? "" : ",");
}

constexpr const char* kUsage =
    "[output.json] [--threads N] [--smoke] [--checkpoint FILE] "
    "[--checkpoint-every K] [--resume FILE] [--watchdog SECONDS] "
    "[--retries N] [--kill-after N]";

int run_bench(int argc, char** argv) {
  using namespace nplus;
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
  const bool smoke = util::take_flag(argc, argv, "--smoke");
  util::reject_unknown_flags(argc, argv);
  if (argc > 2) {
    throw util::UsageError("expected at most one positional argument "
                           "(the output path)");
  }
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_scale.json";

  const std::uint64_t kSeed = 7;
  // Rounds shrink with N: per-round cost grows with contention, and the
  // statistics of a 100-pair world average over links, not rounds.
  struct Cfg {
    std::size_t n;
    std::size_t worlds;
    std::size_t rounds;
  };
  std::vector<Cfg> cfgs = {{3, 3, 200}, {10, 3, 120}, {25, 2, 80},
                           {50, 2, 48}, {100, 2, 24}};
  if (smoke) cfgs = {{3, 2, 16}, {10, 1, 8}};

  // Flatten every (sweep point, world) pair into ONE parallel batch so the
  // pool stays busy across points — a single N=100 point only has 2 items,
  // far fewer than the pool's workers. Item i's randomness is forked from
  // the master seed by CheckpointedRunner, so the flat order is the
  // determinism contract (and is independent of the thread count).
  std::vector<SweepPoint> points;
  std::vector<sim::SweepItem> batch;
  for (const Cfg& c : cfgs) {
    for (const auto placement :
         {sim::PlacementMode::kUniform, sim::PlacementMode::kClustered}) {
      SweepPoint p;
      p.n_links = c.n;
      p.placement =
          placement == sim::PlacementMode::kUniform ? "uniform" : "clustered";
      p.n_worlds = c.worlds;
      p.rounds = c.rounds;
      points.push_back(std::move(p));
      for (std::size_t w = 0; w < c.worlds; ++w) {
        batch.push_back(make_item(c.n, placement, c.rounds));
      }
    }
  }
  const double t0 = now_s();
  sim::CheckpointedRunner runner(batch, kSeed, rcfg);
  const sim::SweepOutcome outcome = runner.run();
  const std::vector<sim::SessionResult>& all = outcome.results;
  const double sweep_wall_s = now_s() - t0;
  if (outcome.resumed > 0) {
    std::printf("resumed %zu/%zu items from %s\n", outcome.resumed,
                all.size(), rcfg.checkpoint_path.c_str());
  }
  if (!outcome.report.all_ok()) {
    std::fputs(outcome.report.summary().c_str(), stderr);
  }
  {
    std::size_t next = 0;
    for (SweepPoint& p : points) {
      p.sessions.assign(all.begin() + static_cast<std::ptrdiff_t>(next),
                        all.begin() + static_cast<std::ptrdiff_t>(
                                          next + p.n_worlds));
      next += p.n_worlds;
      print_point(p);
    }
    std::printf("sweep wall clock: %.2f s (%zu sessions)\n", sweep_wall_s,
                all.size());
  }

  // Named stress presets, one DCF session each.
  struct PresetRun {
    sim::Preset preset;
    sim::SessionResult session;
  };
  std::vector<PresetRun> presets;
  for (const auto preset :
       {sim::Preset::kThreePair, sim::Preset::kHiddenTerminal,
        sim::Preset::kExposedTerminal, sim::Preset::kDenseCell}) {
    util::Rng rng(kSeed);
    util::Rng world_rng = rng.fork(11);
    util::Rng session_rng = rng.fork(12);
    const sim::GeneratedTopology topo = sim::make_preset(preset, rng);
    sim::World world = sim::make_world(topo, world_rng);
    sim::SessionConfig scfg;
    scfg.n_rounds = smoke ? 16 : 120;
    const auto res =
        sim::run_session(world, topo.scenario, session_rng, scfg);
    std::printf("preset %-16s | total %7.2f Mb/s  jain %.3f  "
                "joins/round %.2f\n",
                sim::preset_name(preset), res.total_mbps, res.jain,
                res.mean_winners_per_round);
    presets.push_back({preset, res});
  }

  // Determinism spot check: the smallest sweep point, pool of 1 vs 2.
  bool deterministic = true;
  {
    std::vector<sim::SweepItem> items(2, make_item(3, sim::PlacementMode::kUniform,
                                                   smoke ? 8 : 20));
    const auto run_pool = [&](std::size_t threads) {
      sim::RunnerConfig pool_cfg;
      pool_cfg.supervisor.n_threads = threads;
      return sim::CheckpointedRunner(items, 99, pool_cfg).run();
    };
    const sim::SweepOutcome pool1 = run_pool(1);
    const sim::SweepOutcome pool2 = run_pool(2);
    deterministic = pool1.complete() && pool2.complete();
    const auto& a = pool1.results;
    const auto& b = pool2.results;
    for (std::size_t i = 0; i < a.size(); ++i) {
      deterministic = deterministic && a[i].total_mbps == b[i].total_mbps &&
                      a[i].jain == b[i].jain &&
                      a[i].per_link_mbps == b[i].per_link_mbps;
    }
    std::printf("determinism (pool 1 vs 2): %s\n",
                deterministic ? "identical" : "MISMATCH");
  }

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"scale_topologies\",\n");
  std::fprintf(f, "  \"seed\": %llu,\n  \"smoke\": %s,\n",
               static_cast<unsigned long long>(kSeed),
               smoke ? "true" : "false");
  std::fprintf(f, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    std::fprintf(f,
                 "    {\"n_links\": %zu, \"placement\": \"%s\", "
                 "\"n_worlds\": %zu, \"rounds\": %zu, \"sessions\": [\n",
                 p.n_links, p.placement, p.n_worlds, p.rounds);
    for (std::size_t w = 0; w < p.sessions.size(); ++w) {
      json_session(f, p.sessions[w], "      ", w + 1 == p.sessions.size());
    }
    std::fprintf(f, "    ]}%s\n", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"presets\": [\n");
  for (std::size_t i = 0; i < presets.size(); ++i) {
    std::fprintf(f, "    {\"name\": \"%s\", \"session\":\n",
                 sim::preset_name(presets[i].preset));
    json_session(f, presets[i].session, "      ", true);
    std::fprintf(f, "    }%s\n", i + 1 < presets.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"deterministic_across_thread_counts\": %s\n}\n",
               deterministic ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  // 3 = quarantined item(s): the JSON above holds partial results only.
  if (!outcome.report.all_ok()) return 3;
  return deterministic ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  return nplus::util::cli_main(argc, argv, kUsage, run_bench);
}
