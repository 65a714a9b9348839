// n+'s two-level contention process (§3.1, Fig. 5).
//
// Primary contention is plain 802.11 DCF. After a winner starts, every node
// with more antennas than the number of used degrees of freedom keeps
// contending — carrier-sensing in the projected space — for the remaining
// DoF. Each secondary winner consumes (its antennas - used DoF) streams.
// The process repeats until no contender can add a stream. All joiners end
// with the first winner, and the medium then goes idle so single-antenna
// nodes are never starved.
//
// This module is pure protocol logic (who wins, in what order, how many
// streams each gets); signal-level eligibility (the L-threshold admission
// check) and rate selection are applied by the layer above, which has the
// channels.
#pragma once

#include <vector>

#include "mac/dcf.h"
#include "util/rng.h"

namespace nplus::mac {

struct Contender {
  std::size_t id = 0;
  std::size_t n_antennas = 1;
};

struct Winner {
  std::size_t contender_id = 0;
  std::size_t n_streams = 0;   // streams this winner transmits
  std::size_t dof_before = 0;  // degrees of freedom in use when it joined
};

struct ContentionResult {
  std::vector<Winner> winners;      // in join order
  std::size_t total_streams = 0;
  double contention_time_s = 0.0;   // DIFS/backoff time across all rounds
  int collisions = 0;
};

// Runs the full n+ contention for one transmission opportunity with DCF
// backoff in every round. Contenders with zero eligible streams drop out.
ContentionResult nplus_contention(const std::vector<Contender>& contenders,
                                  util::Rng& rng,
                                  const phy::MacTiming& timing = {},
                                  const DcfConfig& cfg = {});

}  // namespace nplus::mac
