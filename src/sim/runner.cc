#include "sim/runner.h"

#include <optional>
#include <string>
#include <utility>

namespace nplus::sim {

namespace {

// One placement's full evaluation: the world redraw loop plus every
// method's round loop, one sample per method. `cancel` is polled between
// rounds; a fired token throws util::TimeoutError so the supervisor can
// quarantine the placement as timed out.
std::vector<ThroughputSample> evaluate_placement(
    const channel::Testbed& testbed, const Scenario& scenario,
    const ExperimentConfig& config, const std::vector<RoundFn>& methods,
    std::size_t p, util::Rng& placement_rng,
    const util::CancelToken& cancel) {
  // Draw placements until every traffic pair is alive (or give up and
  // accept the last draw).
  std::optional<World> world;
  for (int attempt = 0; attempt < 50; ++attempt) {
    const std::vector<std::size_t> locations =
        testbed.random_placement(scenario.nodes.size(), placement_rng);
    world.emplace(testbed, scenario.nodes, locations, placement_rng,
                  config.world);
    bool alive = true;
    for (const auto& link : scenario.links) {
      if (world->link_snr_db(link.tx_node, link.rx_node) <
          config.min_pair_snr_db) {
        alive = false;
        break;
      }
    }
    if (alive) break;
  }

  std::vector<ThroughputSample> samples(methods.size());
  std::vector<double> bits;
  for (std::size_t m = 0; m < methods.size(); ++m) {
    util::Rng round_rng = placement_rng.fork(1000 + m);
    double total_time = 0.0;
    bits.assign(scenario.links.size(), 0.0);
    for (std::size_t r = 0; r < config.rounds_per_placement; ++r) {
      if (cancel.cancelled()) {
        throw util::TimeoutError(
            "placement " + std::to_string(p) +
            " cancelled by watchdog (method " + std::to_string(m) +
            ", round " + std::to_string(r) + ")");
      }
      const GenericRound round = methods[m](*world, round_rng);
      total_time += round.duration_s;
      for (std::size_t l = 0;
           l < bits.size() && l < round.delivered_bits.size(); ++l) {
        bits[l] += round.delivered_bits[l];
      }
    }
    ThroughputSample& sample = samples[m];
    sample.per_link_mbps.resize(bits.size());
    double total_bits = 0.0;
    for (std::size_t l = 0; l < bits.size(); ++l) {
      sample.per_link_mbps[l] =
          total_time > 0.0 ? bits[l] / total_time / 1e6 : 0.0;
      total_bits += bits[l];
    }
    sample.total_mbps =
        total_time > 0.0 ? total_bits / total_time / 1e6 : 0.0;
  }
  return samples;
}

}  // namespace

SupervisedExperiment run_experiment(
    const channel::Testbed& testbed, const Scenario& scenario,
    const ExperimentConfig& config, const std::vector<RoundFn>& methods,
    const util::SupervisorConfig& supervisor) {
  SupervisedExperiment out;
  out.methods.resize(methods.size());
  for (auto& r : out.methods) r.samples.resize(config.n_placements);
  out.completed.assign(config.n_placements, 0);

  // The determinism shard: every placement's stream is forked up front, in
  // placement order, from the master seed, and saved in immutable form —
  // whatever worker picks up placement p (and however often a retry
  // restarts it) sees exactly the stream the serial loop would have.
  util::Rng master(config.seed);
  std::vector<util::Rng::State> placement_streams;
  placement_streams.reserve(config.n_placements);
  for (std::size_t p = 0; p < config.n_placements; ++p) {
    placement_streams.push_back(master.fork(p + 1).save());
  }

  util::SupervisorConfig sup = supervisor;
  if (sup.n_threads == 0) sup.n_threads = config.n_threads;
  if (sup.stream_label.empty()) {
    sup.stream_label = "seed " + std::to_string(config.seed);
  }

  util::Supervisor sv(sup);
  out.report = sv.run(
      config.n_placements, [&](std::size_t p, util::CancelToken& token) {
        util::Rng placement_rng = util::Rng::restore(placement_streams[p]);
        std::vector<ThroughputSample> samples = evaluate_placement(
            testbed, scenario, config, methods, p, placement_rng, token);
        // Published only once every method finished, so a quarantined
        // placement keeps zeroed samples throughout.
        for (std::size_t m = 0; m < methods.size(); ++m) {
          out.methods[m].samples[p] = std::move(samples[m]);
        }
        out.completed[p] = 1;
      });
  return out;
}

RoundFn make_nplus_round_fn(const Scenario& scenario,
                            const RoundConfig& config) {
  return [&scenario, config](const World& world,
                             util::Rng& rng) -> GenericRound {
    const RoundResult res = run_nplus_round(world, scenario, rng, config);
    GenericRound out;
    out.duration_s = res.duration_s;
    out.delivered_bits.resize(res.links.size());
    for (std::size_t i = 0; i < res.links.size(); ++i) {
      out.delivered_bits[i] = res.links[i].delivered_bits;
    }
    return out;
  };
}

}  // namespace nplus::sim
