#include "sim/scenario_gen.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>
#include <optional>
#include <stdexcept>
#include <string>

namespace nplus::sim {

namespace {

struct Pt {
  double x = 0.0;
  double y = 0.0;
};

double dist(const Pt& a, const Pt& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

Pt clamp_to_area(Pt p, const GenConfig& cfg) {
  p.x = std::clamp(p.x, 0.0, cfg.area_w_m);
  p.y = std::clamp(p.y, 0.0, cfg.area_h_m);
  return p;
}

// Draws a position from `draw`, retrying (best effort) until it clears the
// minimum separation from every already-placed node; the last draw wins if
// the floor is too crowded — large N must degrade gracefully, not loop.
template <typename DrawFn>
Pt place_separated(std::vector<Pt>& placed, const GenConfig& cfg,
                   DrawFn&& draw) {
  Pt p;
  for (int attempt = 0; attempt < 64; ++attempt) {
    p = clamp_to_area(draw(), cfg);
    bool clear = true;
    for (const Pt& q : placed) {
      if (dist(p, q) < cfg.min_separation_m) {
        clear = false;
        break;
      }
    }
    if (clear) break;
  }
  placed.push_back(p);
  return p;
}

channel::Testbed testbed_from(const std::vector<Pt>& pts) {
  std::vector<channel::Location> locs;
  locs.reserve(pts.size());
  for (const Pt& p : pts) locs.push_back({p.x, p.y});
  return channel::Testbed(std::move(locs));
}

void finish_topology(GeneratedTopology& topo, std::vector<Pt> pts) {
  topo.testbed = testbed_from(pts);
  topo.locations.resize(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) topo.locations[i] = i;
  topo.roles = node_roles(topo.scenario);
}

}  // namespace

void GenConfig::validate() const {
  const auto bad = [](const std::string& what, double v) {
    throw std::invalid_argument("GenConfig: " + what + ", got " +
                                std::to_string(v));
  };
  if (n_links == 0) {
    throw std::invalid_argument("GenConfig: n_links must be >= 1 (a "
                                "zero-node world has nothing to simulate)");
  }
  if (!std::isfinite(area_w_m) || area_w_m <= 0.0) {
    bad("area_w_m must be finite and > 0", area_w_m);
  }
  if (!std::isfinite(area_h_m) || area_h_m <= 0.0) {
    bad("area_h_m must be finite and > 0", area_h_m);
  }
  if (!std::isfinite(min_separation_m) || min_separation_m < 0.0) {
    bad("min_separation_m must be finite and >= 0", min_separation_m);
  }
  if (!std::isfinite(min_pair_distance_m) || min_pair_distance_m < 0.0) {
    bad("min_pair_distance_m must be finite and >= 0", min_pair_distance_m);
  }
  if (!std::isfinite(max_pair_distance_m) ||
      max_pair_distance_m < min_pair_distance_m) {
    bad("max_pair_distance_m must be finite and >= min_pair_distance_m",
        max_pair_distance_m);
  }
  if (!std::isfinite(cluster_std_m) || cluster_std_m < 0.0) {
    bad("cluster_std_m must be finite and >= 0", cluster_std_m);
  }
}

std::size_t draw_antennas(const AntennaMix& mix, util::Rng& rng) {
  double total = 0.0;
  for (double w : mix.weights) total += std::max(w, 0.0);
  if (total <= 0.0) return 1 + rng.uniform_int(4u);
  double u = rng.uniform() * total;
  for (std::size_t i = 0; i < mix.weights.size(); ++i) {
    u -= std::max(mix.weights[i], 0.0);
    if (u < 0.0) return i + 1;
  }
  return mix.weights.size();
}

std::vector<std::uint8_t> node_roles(const Scenario& scenario) {
  std::vector<std::uint8_t> roles(scenario.nodes.size(), 0);
  for (const Link& l : scenario.links) {
    roles[l.tx_node] |= kRoleTx;
    roles[l.rx_node] |= kRoleRx;
  }
  return roles;
}

GeneratedTopology generate_topology(const GenConfig& cfg, util::Rng& rng) {
  cfg.validate();
  GeneratedTopology topo;
  std::vector<Pt> pts;

  // Cluster centers (kClustered): drawn once, links hash onto them.
  std::vector<Pt> centers;
  if (cfg.placement == PlacementMode::kClustered) {
    const std::size_t k = std::max<std::size_t>(1, cfg.n_clusters);
    for (std::size_t i = 0; i < k; ++i) {
      centers.push_back({rng.uniform(0.0, cfg.area_w_m),
                         rng.uniform(0.0, cfg.area_h_m)});
    }
  }

  // Anchor position for a link/cell: uniform over the floor, or Gaussian
  // around a random cluster center.
  const auto draw_anchor = [&]() -> Pt {
    if (cfg.placement == PlacementMode::kClustered) {
      const Pt& c = centers[rng.uniform_int(
          static_cast<std::uint32_t>(centers.size()))];
      return {rng.gaussian(c.x, cfg.cluster_std_m),
              rng.gaussian(c.y, cfg.cluster_std_m)};
    }
    return {rng.uniform(0.0, cfg.area_w_m), rng.uniform(0.0, cfg.area_h_m)};
  };
  // Receiver position: in the [min, max] distance band around its anchor
  // (transmitter or AP), uniform angle.
  const auto draw_near = [&](const Pt& a) -> Pt {
    const double d =
        rng.uniform(cfg.min_pair_distance_m, cfg.max_pair_distance_m);
    const double th = rng.uniform(0.0, 2.0 * std::numbers::pi);
    return {a.x + d * std::cos(th), a.y + d * std::sin(th)};
  };

  if (cfg.pattern == LinkPattern::kPeerPairs) {
    topo.name = "peer_pairs";
    for (std::size_t i = 0; i < cfg.n_links; ++i) {
      const std::size_t tx = topo.scenario.nodes.size();
      topo.scenario.nodes.push_back({draw_antennas(cfg.tx_mix, rng)});
      const Pt tx_pt = place_separated(pts, cfg, draw_anchor);
      const std::size_t rx = topo.scenario.nodes.size();
      topo.scenario.nodes.push_back({draw_antennas(cfg.rx_mix, rng)});
      place_separated(pts, cfg, [&] { return draw_near(tx_pt); });
      topo.scenario.links.push_back({tx, rx});
    }
  } else {
    topo.name = "ap_downlink";
    const std::size_t per = std::max<std::size_t>(1, cfg.links_per_ap);
    std::size_t remaining = cfg.n_links;
    while (remaining > 0) {
      const std::size_t ap = topo.scenario.nodes.size();
      topo.scenario.nodes.push_back({draw_antennas(cfg.tx_mix, rng)});
      const Pt ap_pt = place_separated(pts, cfg, draw_anchor);
      const std::size_t clients = std::min(per, remaining);
      for (std::size_t c = 0; c < clients; ++c) {
        const std::size_t rx = topo.scenario.nodes.size();
        topo.scenario.nodes.push_back({draw_antennas(cfg.rx_mix, rng)});
        place_separated(pts, cfg, [&] { return draw_near(ap_pt); });
        topo.scenario.links.push_back({ap, rx});
      }
      remaining -= clients;
    }
  }

  topo.name += cfg.placement == PlacementMode::kClustered ? "/clustered"
                                                          : "/uniform";
  topo.name += "/N=" + std::to_string(cfg.n_links);
  finish_topology(topo, std::move(pts));
  return topo;
}

const char* preset_name(Preset preset) {
  switch (preset) {
    case Preset::kThreePair: return "three_pair";
    case Preset::kHiddenTerminal: return "hidden_terminal";
    case Preset::kExposedTerminal: return "exposed_terminal";
    case Preset::kDenseCell: return "dense_cell";
  }
  return "unknown";
}

GeneratedTopology make_preset(Preset preset) {
  GeneratedTopology topo;
  topo.name = preset_name(preset);
  std::vector<Pt> pts;

  switch (preset) {
    case Preset::kThreePair:
      // The paper's Fig. 3 workload: 1/2/3-antenna pairs, each pair close
      // (strong wanted signal), pairs spread across the floor so mutual
      // interference is significant but nullable.
      topo.scenario.nodes = {{1}, {1}, {2}, {2}, {3}, {3}};
      topo.scenario.links = {{0, 1}, {2, 3}, {4, 5}};
      pts = {{3.0, 3.0},  {7.0, 4.0},   // tx1 -> rx1
             {14.0, 10.0}, {18.0, 9.0},  // tx2 -> rx2
             {6.0, 14.0},  {10.0, 15.0}};  // tx3 -> rx3
      break;
    case Preset::kHiddenTerminal:
      // Transmitters at opposite ends of the floor (out of carrier-sense
      // range of each other), receivers side by side in the middle: each
      // transmission hammers the other link's receiver. Antennas are
      // heterogeneous (1x1 pair + 2x2 pair) so the larger link can still
      // join after the single-antenna one — the DoF rule (Claim 3.2) bars
      // equal-antenna joiners outright.
      topo.scenario.nodes = {{1}, {1}, {2}, {2}};
      topo.scenario.links = {{0, 1}, {2, 3}};
      pts = {{1.0, 9.0}, {13.0, 9.0},   // txA -> rxA
             {27.0, 9.0}, {15.0, 9.0}};  // txB -> rxB
      break;
    case Preset::kExposedTerminal:
      // Transmitters side by side (they sense each other strongly),
      // receivers on opposite far sides: classically serialized by 802.11,
      // the canonical concurrency opportunity. 1x1 + 2x2 so the two-antenna
      // link has a spare DoF to join with.
      topo.scenario.nodes = {{1}, {1}, {2}, {2}};
      topo.scenario.links = {{0, 1}, {2, 3}};
      pts = {{13.0, 9.0}, {3.0, 9.0},   // txA -> rxA (west)
             {16.0, 9.0}, {26.0, 9.0}};  // txB -> rxB (east)
      break;
    case Preset::kDenseCell:
      // A 4-antenna AP serving four close-in 2-antenna clients, plus a
      // single-antenna peer transmitter inside the cell: when the peer wins
      // the primary contention the AP joins over the remaining 3 DoF.
      topo.scenario.nodes = {{4},            // 0: AP
                             {2}, {2}, {2}, {2},  // 1-4: clients
                             {1}, {2}};      // 5: peer tx, 6: peer rx
      topo.scenario.links = {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {5, 6}};
      pts = {{15.0, 9.0},
             {18.5, 9.0}, {15.0, 12.5}, {11.5, 9.0}, {15.0, 5.5},
             {19.0, 12.0}, {21.5, 13.5}};
      break;
  }

  finish_topology(topo, std::move(pts));
  return topo;
}

World make_world(const GeneratedTopology& topo, util::Rng& rng,
                 const WorldConfig& config) {
  return World(topo.testbed, topo.scenario.nodes, topo.locations, rng,
               config, topo.roles);
}

World place_on_testbed(const Scenario& scenario, util::Rng& placement_rng,
                       util::Rng& world_rng, const WorldConfig& config) {
  const channel::Testbed office;
  const std::vector<std::uint8_t> roles = node_roles(scenario);
  std::optional<World> world;
  for (int draw = 0; draw < kMaxPlacementDraws; ++draw) {
    world.emplace(office, scenario.nodes,
                  office.random_placement(scenario.nodes.size(),
                                          placement_rng),
                  world_rng, config, roles);
    if (std::all_of(scenario.links.begin(), scenario.links.end(),
                    [&](const Link& l) {
                      return world->link_snr_db(l.tx_node, l.rx_node) >=
                             kMinLinkSnrDb;
                    })) {
      break;
    }
  }
  return std::move(*world);
}

std::vector<SweepItem> testbed_comparison(const Scenario& scenario,
                                          std::size_t n_placements,
                                          const std::vector<Scheme>& schemes,
                                          std::size_t n_rounds,
                                          const RoundConfig& round) {
  std::vector<SweepItem> items;
  items.reserve(n_placements * schemes.size());
  for (std::size_t p = 0; p < n_placements; ++p) {
    for (const Scheme scheme : schemes) {
      SweepItem item;
      item.on_testbed = scenario;
      item.stream = p;
      item.session.n_rounds = n_rounds;
      item.session.round = round;
      item.session.scheme = scheme;
      items.push_back(std::move(item));
    }
  }
  return items;
}

}  // namespace nplus::sim
