#include "baselines/beamforming.h"

#include <algorithm>

namespace nplus::baselines {

sim::RoundResult run_beamforming_round(const sim::World& world,
                                       const sim::Scenario& scenario,
                                       util::Rng& rng,
                                       const sim::RoundConfig& config) {
  sim::RoundResult out;
  out.links.assign(scenario.links.size(), sim::LinkOutcome{});

  const std::vector<std::size_t> txs = scenario.transmitters();
  const std::size_t tx =
      txs[rng.uniform_int(static_cast<std::uint32_t>(txs.size()))];
  const std::vector<std::size_t> links = scenario.links_of(tx);
  out.winner_order.push_back(tx);

  // Stream split: round-robin up to the transmitter's antennas, capped by
  // each receiver's antennas.
  std::vector<std::size_t> streams(links.size(), 0);
  std::size_t m = 0;
  bool progress = true;
  while (m < world.antennas(tx) && progress) {
    progress = false;
    for (std::size_t d = 0; d < links.size(); ++d) {
      if (m >= world.antennas(tx)) break;
      const std::size_t cap =
          world.antennas(scenario.links[links[d]].rx_node);
      if (streams[d] < cap) {
        ++streams[d];
        ++m;
        progress = true;
      }
    }
  }

  sim::IsolatedTxSpec spec;
  spec.tx_node = tx;
  for (std::size_t d = 0; d < links.size(); ++d) {
    if (streams[d] == 0) continue;
    spec.dests.push_back(sim::IsolatedDest{
        links[d], scenario.links[links[d]].rx_node, streams[d]});
  }
  spec.mu_beamforming = spec.dests.size() > 1;

  const sim::IsolatedTxResult res =
      sim::evaluate_isolated_tx(world, spec, rng, config);

  out.duration_s = res.airtime_s;
  if (config.include_overheads) {
    out.duration_s += config.airtime.timing.difs_s +
                      rng.uniform_int(0, 15) * config.airtime.timing.slot_s;
  }
  for (std::size_t d = 0; d < spec.dests.size(); ++d) {
    out.links[spec.dests[d].link_idx] = res.outcomes[d];
    if (res.outcomes[d].mcs_index >= 0) {
      out.total_streams += spec.dests[d].n_streams;
    }
  }
  out.degenerate_esnr = res.degenerate_esnr;
  return out;
}

}  // namespace nplus::baselines
