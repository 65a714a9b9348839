// Scenario engine, part 1: random N-link topology generation.
//
// The paper evaluates n+ on exactly two hand-built scenarios (Figs. 3/4);
// this subsystem generates whole families of them — N peer pairs or AP
// downlink cells, uniform or clustered node placement on a continuous floor,
// heterogeneous 1-4-antenna nodes drawn from a configurable mix — so the
// repo can answer "what happens at 10/50/200 contending pairs?" instead of
// only reproducing the figures. Named stress presets (hidden-terminal,
// exposed-terminal, dense-cell, plus the paper's three-pair layout) pin the
// classic worst-case geometries.
//
// Determinism contract: every function draws randomness exclusively through
// the caller-supplied util::Rng, so callers fork one child per topology
// (Rng::fork) before dispatch and generation is reproducible and
// thread-safe. A (config, rng-stream) pair always yields the same topology,
// on any thread, at any pool size.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "channel/testbed.h"
#include "sim/round.h"
#include "sim/session.h"

namespace nplus::sim {

// How nodes fall on the floor.
enum class PlacementMode {
  kUniform,    // i.i.d. uniform over the area (min-separation enforced)
  kClustered,  // Gaussian clusters ("rooms"): links land around cluster
               // centers, reproducing dense-office contention hot spots
};

// Which traffic pattern the links form.
enum class LinkPattern {
  kPeerPairs,   // N independent tx->rx pairs (Fig. 3 generalized)
  kApDownlink,  // APs each serving several clients (Fig. 4 generalized)
};

// Relative weights for drawing a node's antenna count in {1, 2, 3, 4}.
// Weights need not sum to 1; all-zero falls back to uniform.
struct AntennaMix {
  std::array<double, 4> weights = {1.0, 1.0, 1.0, 1.0};
};

struct GenConfig {
  std::size_t n_links = 3;
  LinkPattern pattern = LinkPattern::kPeerPairs;
  PlacementMode placement = PlacementMode::kUniform;
  AntennaMix tx_mix{};
  AntennaMix rx_mix{};

  // Floor dimensions (the default matches the Fig. 10 office footprint).
  double area_w_m = 30.0;
  double area_h_m = 18.0;
  // Nodes are redrawn (best effort) until at least this far apart.
  double min_separation_m = 1.0;
  // A link's receiver is placed in this distance band around its
  // transmitter (resp. its AP), keeping every offered link physically
  // viable while interference spans the whole floor.
  double min_pair_distance_m = 2.0;
  double max_pair_distance_m = 12.0;

  // kClustered parameters.
  std::size_t n_clusters = 4;
  double cluster_std_m = 2.5;

  // kApDownlink: clients per AP (the last AP takes the remainder).
  std::size_t links_per_ap = 2;

  // Rejects zero-link topologies, non-finite / non-positive floor
  // dimensions, negative separations, and an inverted pair-distance band
  // with std::invalid_argument. generate_topology calls this on entry.
  void validate() const;
};

// A generated world-template: the Scenario (nodes + links), a Testbed whose
// location i is node i's position (so `locations` is the identity map), and
// the NodeRole bitmasks that let World materialize only tx-rx channel pairs.
struct GeneratedTopology {
  std::string name;
  Scenario scenario;
  channel::Testbed testbed;
  std::vector<std::size_t> locations;
  std::vector<std::uint8_t> roles;
};

// Draws an antenna count in [1, 4] from the mix.
std::size_t draw_antennas(const AntennaMix& mix, util::Rng& rng);

// NodeRole bitmask per scenario node (kRoleTx / kRoleRx from world.h).
std::vector<std::uint8_t> node_roles(const Scenario& scenario);

// Generates one random topology. All randomness comes from `rng`.
GeneratedTopology generate_topology(const GenConfig& config, util::Rng& rng);

// Named stress presets with pinned geometry.
enum class Preset {
  kThreePair,        // the paper's Fig. 3 layout (1/2/3-antenna pairs)
  kHiddenTerminal,   // transmitters out of carrier-sense range, receivers
                     // side by side in the middle (1x1 + 2x2 pairs)
  kExposedTerminal,  // transmitters side by side, receivers on opposite
                     // far sides (1x1 + 2x2 pairs)
  kDenseCell,        // one 4-antenna AP serving 4 close-in 2-antenna
                     // clients plus a single-antenna peer transmitter
                     // inside the cell
};
const char* preset_name(Preset preset);
// Presets have fixed coordinates and antennas; building one draws nothing.
GeneratedTopology make_preset(Preset preset);

// Builds the (sparse) World for a generated topology: channels only between
// transmit and receive roles, placements taken from the topology itself.
World make_world(const GeneratedTopology& topo, util::Rng& rng,
                 const WorldConfig& config = {});

// The paper's experiments run between nodes that can actually communicate:
// a testbed placement is redrawn until every link's raw SNR reaches this
// floor, at most this many times (the last draw stands).
constexpr double kMinLinkSnrDb = 8.0;
constexpr int kMaxPlacementDraws = 50;

// Places `scenario` at random on the default channel::Testbed (Fig. 10's
// office) and builds its sparse World: the locations draw from
// `placement_rng`, the channels from `world_rng`, redrawn as above.
World place_on_testbed(const Scenario& scenario, util::Rng& placement_rng,
                       util::Rng& world_rng, const WorldConfig& config = {});

// One sweep item: a topology, its world, and one multi-round session on it.
// sim::CheckpointedRunner (checkpoint_runner.h) runs a list of them. Items
// may set session.dynamics (mobility, Doppler channel evolution, churn,
// adaptive rates) or session.faults: each item owns its world, so live
// sessions keep the same determinism contract.
struct SweepItem {
  // The generated topology; ignored when on_testbed is set.
  GenConfig gen;
  SessionConfig session{};
  WorldConfig world{};
  // Which pre-forked stream the item draws from; unset means its own
  // position in the sweep. Items that name the same stream get identical
  // topologies, worlds and session draws (common random numbers).
  std::optional<std::size_t> stream{};
  // A fixed scenario to place with place_on_testbed instead of generating
  // one from `gen`.
  std::optional<Scenario> on_testbed{};
};

// A paired method comparison on random testbed placements (the paper's
// §6.3 methodology): item p * schemes.size() + m runs schemes[m] for
// n_rounds static rounds under `round` on placement p, and all of
// placement p's items share stream p, so every scheme sees the same world.
std::vector<SweepItem> testbed_comparison(const Scenario& scenario,
                                          std::size_t n_placements,
                                          const std::vector<Scheme>& schemes,
                                          std::size_t n_rounds,
                                          const RoundConfig& round);

}  // namespace nplus::sim
