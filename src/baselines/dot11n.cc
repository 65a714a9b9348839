#include "baselines/dot11n.h"

#include <algorithm>

#include "mac/dcf.h"
#include "sim/faults.h"

namespace nplus::baselines {

sim::RoundResult run_dot11n_round(const sim::World& world,
                                  const sim::Scenario& scenario,
                                  util::Rng& rng,
                                  const sim::RoundConfig& config,
                                  const std::vector<std::uint8_t>*
                                      active_links) {
  sim::RoundResult out;
  out.links.assign(scenario.links.size(), sim::LinkOutcome{});

  // Links with traffic this round (churn/outage mask applied).
  std::vector<std::size_t> active;
  for (std::size_t l = 0; l < scenario.links.size(); ++l) {
    if (active_links == nullptr || (*active_links)[l] != 0) {
      active.push_back(l);
    }
  }
  if (active.empty()) return out;

  std::size_t li;
  double contention_s = 0.0;
  if (config.dcf_contention) {
    // Real DCF among the active links' transmitters (station order =
    // first-appearance order, as in the n+ round); the winner then picks
    // uniformly among its backlogged links. Retrying stations carry their
    // escalated windows into contention, exactly like the n+ scheme.
    std::vector<std::size_t> stations;
    for (std::size_t l : active) {
      const std::size_t tx = scenario.links[l].tx_node;
      if (std::find(stations.begin(), stations.end(), tx) ==
          stations.end()) {
        stations.push_back(tx);
      }
    }
    mac::ContentionOutcome c;
    if (config.faults != nullptr && config.faults->cw_escalated()) {
      std::vector<int> cw0;
      cw0.reserve(stations.size());
      for (std::size_t tx : stations) {
        cw0.push_back(config.faults->cw_for_tx(tx));
      }
      c = mac::contend(cw0, rng, config.airtime.timing);
    } else {
      c = mac::contend(stations.size(), rng, config.airtime.timing);
    }
    contention_s = c.elapsed_s;
    const std::size_t tx = stations[c.winner];
    std::vector<std::size_t> own;
    for (std::size_t l : active) {
      if (scenario.links[l].tx_node == tx) own.push_back(l);
    }
    li = own[own.size() == 1
                 ? 0
                 : rng.uniform_int(static_cast<std::uint32_t>(own.size()))];
  } else {
    // Paper methodology: uniform winner among links, average backoff.
    li = active[rng.uniform_int(static_cast<std::uint32_t>(active.size()))];
    contention_s = config.airtime.timing.difs_s +
                   rng.uniform_int(0, 15) * config.airtime.timing.slot_s;
  }

  const sim::Link& link = scenario.links[li];
  out.winner_order.push_back(link.tx_node);

  // Injected degenerate CSI hits 802.11n too: the winner's measurement is
  // garbage, no rate is selectable, the slot is wasted (contention still
  // burned) — same failure semantics as the n+ scheme.
  if (config.faults != nullptr && config.faults->channel_degenerate(li)) {
    out.duration_s = config.include_overheads ? contention_s : 0.0;
    return out;
  }

  const std::size_t streams = std::min(world.antennas(link.tx_node),
                                       world.antennas(link.rx_node));
  sim::IsolatedTxSpec spec;
  spec.tx_node = link.tx_node;
  spec.dests.push_back(sim::IsolatedDest{li, link.rx_node, streams});
  spec.mu_beamforming = false;
  const sim::IsolatedTxResult res =
      sim::evaluate_isolated_tx(world, spec, rng, config);

  out.links[li] = res.outcomes[0];
  out.total_streams = out.links[li].mcs_index >= 0 ? streams : 0;
  out.degenerate_esnr = res.degenerate_esnr;
  out.duration_s = res.airtime_s;
  if (config.include_overheads) out.duration_s += contention_s;
  return out;
}

}  // namespace nplus::baselines
