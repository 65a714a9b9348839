// Scenario-engine walkthrough: generate a random 10-pair world with mixed
// 1-4-antenna nodes, run a multi-round DCF session on it, and compare the
// named stress presets.
//
//   ./scenario_engine [--threads N]

#include <cstdio>

#include "sim/scenario_gen.h"
#include "sim/session.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace nplus;
  util::init_threads_from_cli(argc, argv);

  // 1. Generate: 10 peer pairs, clustered placement, small-radio-heavy mix.
  sim::GenConfig gen;
  gen.n_links = 10;
  gen.placement = sim::PlacementMode::kClustered;
  gen.tx_mix.weights = {0.4, 0.3, 0.2, 0.1};
  gen.rx_mix.weights = {0.4, 0.3, 0.2, 0.1};

  util::Rng master(2026);
  util::Rng gen_rng = master.fork(1);
  util::Rng world_rng = master.fork(2);
  util::Rng session_rng = master.fork(3);

  const sim::GeneratedTopology topo = sim::generate_topology(gen, gen_rng);
  std::printf("generated %s: %zu nodes, %zu links\n", topo.name.c_str(),
              topo.scenario.nodes.size(), topo.scenario.links.size());
  for (std::size_t i = 0; i < topo.scenario.links.size(); ++i) {
    const auto& l = topo.scenario.links[i];
    std::printf("  link %2zu: node %2zu (%zu ant) -> node %2zu (%zu ant)\n",
                i, l.tx_node, topo.scenario.nodes[l.tx_node].n_antennas,
                l.rx_node, topo.scenario.nodes[l.rx_node].n_antennas);
  }

  // 2. Simulate: a 60-round session with real DCF contention.
  sim::World world = sim::make_world(topo, world_rng);
  sim::SessionConfig scfg;
  scfg.n_rounds = 60;
  scfg.snapshot_every = 15;
  const sim::SessionResult res =
      sim::run_session(world, topo.scenario, session_rng, scfg);
  std::printf("\nsession: %zu rounds over %.1f ms\n", res.rounds,
              res.duration_s * 1e3);
  std::printf("  total %.2f Mb/s, jain %.3f, joins/round %.2f, "
              "streams/round %.2f\n",
              res.total_mbps, res.jain, res.mean_winners_per_round,
              res.mean_streams_per_round);
  for (const auto& snap : res.series) {
    std::printf("  t=%6.1f ms  rounds=%3zu  %.2f Mb/s  jain %.3f\n",
                snap.t_s * 1e3, snap.rounds, snap.total_mbps, snap.jain);
  }

  // 3. Stress presets.
  std::printf("\npresets (40 rounds each):\n");
  for (const auto preset :
       {sim::Preset::kThreePair, sim::Preset::kHiddenTerminal,
        sim::Preset::kExposedTerminal, sim::Preset::kDenseCell}) {
    util::Rng rng(99);
    util::Rng wr = rng.fork(1);
    util::Rng sr = rng.fork(2);
    const sim::GeneratedTopology t = sim::make_preset(preset);
    sim::World w = sim::make_world(t, wr);
    sim::SessionConfig cfg;
    cfg.n_rounds = 40;
    cfg.snapshot_every = 0;
    const auto r = sim::run_session(w, t.scenario, sr, cfg);
    std::printf("  %-16s %7.2f Mb/s  jain %.3f  joins/round %.2f\n",
                sim::preset_name(preset), r.total_mbps, r.jain,
                r.mean_winners_per_round);
  }
  return 0;
}
