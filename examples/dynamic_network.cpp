// Dynamic-network walkthrough: make a generated cell *live*.
//
// Builds a 10-pair world, then runs the same seeded session four ways:
//   1. frozen (dynamics off — the baseline),
//   2. mobile (pedestrian random-waypoint + Doppler channel evolution),
//   3. mobile + churning (Poisson flow and node arrival/departure),
//   4. mobile + churning with history-driven (AARF) rate adaptation
//      instead of oracle eSNR rate selection.
//
// Things to notice in the output:
//   * mobility + Doppler cost throughput: precoders are computed from CSI
//     measured a round ago, and the channel underneath has moved;
//   * churn idles part of the offered load (mean active links < 10) and
//     can shuffle who wins contention;
//   * AARF recovers some of the staleness loss: the oracle refuses
//     marginal links (it targets 90% delivery), while history-driven
//     adaptation keeps them on the air at a lower, mostly-delivered rate.
//
//   ./dynamic_network [--threads N]

#include <cstdio>

#include "sim/scenario_gen.h"
#include "sim/session.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace nplus;
  util::init_threads_from_cli(argc, argv);

  sim::GenConfig gen;
  gen.n_links = 10;
  gen.placement = sim::PlacementMode::kClustered;
  gen.tx_mix.weights = {0.2, 0.3, 0.3, 0.2};
  gen.rx_mix.weights = {0.2, 0.3, 0.3, 0.2};

  util::Rng master(2026);
  util::Rng gen_rng = master.fork(1);
  const sim::GeneratedTopology topo = sim::generate_topology(gen, gen_rng);
  std::printf("world: %s (%zu nodes, %zu links)\n\n", topo.name.c_str(),
              topo.scenario.nodes.size(), topo.scenario.links.size());

  // One session configuration; the dynamics knobs vary per variant. The
  // 20 ms inter-round gap gives the cell real time to move between
  // transmission opportunities (a 60-round session spans ~1.3 s).
  const auto base_config = [] {
    sim::SessionConfig cfg;
    cfg.n_rounds = 60;
    cfg.inter_round_gap_s = 0.02;
    cfg.snapshot_every = 0;
    return cfg;
  };
  const auto mobile = [](sim::SessionConfig cfg) {
    cfg.dynamics.mobility.model = sim::MobilityModel::kRandomWaypoint;
    cfg.dynamics.mobility.speed_min_mps = 0.8;
    cfg.dynamics.mobility.speed_max_mps = 1.9;
    cfg.dynamics.mobility.mobile_fraction = 0.7;
    cfg.dynamics.evolution.env_doppler_hz = 3.0;
    return cfg;
  };
  const auto churning = [&](sim::SessionConfig cfg) {
    cfg.dynamics.churn.flow_arrival_hz = 1.5;
    cfg.dynamics.churn.flow_departure_hz = 1.0;
    cfg.dynamics.churn.node_leave_hz = 0.3;
    cfg.dynamics.churn.node_return_hz = 1.0;
    return cfg;
  };

  struct Variant {
    const char* name;
    sim::SessionConfig cfg;
  };
  const Variant variants[] = {
      {"frozen (static baseline)", base_config()},
      {"mobile (RWP + Doppler)", mobile(base_config())},
      {"mobile + churn", churning(mobile(base_config()))},
      {"mobile + churn + AARF",
       [&] {
         sim::SessionConfig cfg = churning(mobile(base_config()));
         cfg.dynamics.use_rate_control = true;
         return cfg;
       }()},
  };

  std::printf("%-28s %10s %8s %8s %8s %6s\n", "variant", "Mb/s", "jain",
              "joins", "active", "idle");
  for (const Variant& v : variants) {
    // Same world seed and session seed per variant: differences are the
    // dynamics, not the draw.
    util::Rng world_rng = [&] {
      util::Rng m(2026);
      return m.fork(2);
    }();
    util::Rng session_rng = [&] {
      util::Rng m(2026);
      return m.fork(3);
    }();
    sim::World world = sim::make_world(topo, world_rng);
    const sim::SessionResult res =
        sim::run_session(world, topo.scenario, session_rng, v.cfg);
    std::printf("%-28s %10.3f %8.3f %8.2f %8.1f %6zu\n", v.name,
                res.total_mbps, res.jain, res.mean_winners_per_round,
                res.mean_active_links, res.idle_rounds);
  }

  std::printf(
      "\nKnobs to play with: DynamicsConfig in sim/session.h (mobility\n"
      "model/speeds, EvolutionConfig Doppler floor, churn rates, AARF\n"
      "parameters). bench/dynamics_scale.cc sweeps the grid.\n");
  return 0;
}
