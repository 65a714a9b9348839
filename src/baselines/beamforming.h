// Multi-user beamforming baseline (Aryafar et al., MobiCom 2010 — reference
// [7] of the paper), used in Fig. 13(b).
//
// Beamforming lets a single multi-antenna transmitter pre-code concurrent
// streams to several of its *own* receivers (transmit zero-forcing), but all
// concurrency must originate at that one node: when any other node holds
// the medium, the beamforming AP defers exactly like 802.11. n+'s advantage
// over this baseline is cross-transmitter concurrency (joining the
// single-antenna client's transmission).
#pragma once

#include "sim/round.h"

namespace nplus::baselines {

// One beamforming round in the session engine's RoundResult shape (the
// round a Scheme::kBeamforming session runs): winner drawn uniformly over
// *transmitters*; a winner with multiple links zero-forces to all of them
// simultaneously (streams split round-robin, capped by each receiver's
// antennas). Paper methodology only: random winner, average backoff.
sim::RoundResult run_beamforming_round(const sim::World& world,
                                       const sim::Scenario& scenario,
                                       util::Rng& rng,
                                       const sim::RoundConfig& config);

}  // namespace nplus::baselines
