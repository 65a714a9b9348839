// The 802.11n baseline the paper compares against (§6.3).
//
// One link wins the medium per round; its transmitter sends one packet per
// spatial stream using direct antenna mapping (min(tx antennas, rx
// antennas) streams) at the ESNR-selected bitrate, then the medium goes
// idle again. Nobody joins an ongoing transmission — a 2x2 pair hearing a
// busy medium defers even though it could null (Fig. 1(a) of the paper).
#pragma once

#include "sim/round.h"

namespace nplus::baselines {

// One 802.11n round in the session engine's RoundResult shape — the round a
// Scheme::kDot11n session runs instead of run_nplus_round, so n+ and stock
// 802.11n compare under the identical session accounting and fault plan.
// Without DCF (config.dcf_contention == false, the paper's methodology) the
// winner is drawn uniformly over the active links, matching "each
// transmitter is given an equal chance to transmit", and pays the average
// backoff. Honors the churn/outage mask, the DCF path (with escalated retry
// windows via config.faults), and the degenerate-channel injection; nobody
// ever joins — one link per round owns the medium.
sim::RoundResult run_dot11n_round(const sim::World& world,
                                  const sim::Scenario& scenario,
                                  util::Rng& rng,
                                  const sim::RoundConfig& config,
                                  const std::vector<std::uint8_t>*
                                      active_links = nullptr);

}  // namespace nplus::baselines
