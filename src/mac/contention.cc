#include "mac/contention.h"

#include <algorithm>

namespace nplus::mac {

ContentionResult nplus_contention(const std::vector<Contender>& contenders,
                                  util::Rng& rng,
                                  const phy::MacTiming& timing,
                                  const DcfConfig& cfg) {
  ContentionResult result;
  std::size_t used = 0;

  // Indices of contenders still in the running.
  std::vector<std::size_t> active(contenders.size());
  for (std::size_t i = 0; i < active.size(); ++i) active[i] = i;

  for (;;) {
    // Eligible for this round: more antennas than used DoF, and hasn't
    // already won.
    std::vector<std::size_t> eligible;
    for (std::size_t idx : active) {
      const Contender& c = contenders[idx];
      if (c.n_antennas <= used) continue;
      eligible.push_back(idx);
    }
    if (eligible.empty()) break;

    const ContentionOutcome round =
        contend(eligible.size(), rng, timing, cfg);
    result.contention_time_s += round.elapsed_s;
    result.collisions += round.collisions;

    const std::size_t idx = eligible[round.winner];
    const Contender& c = contenders[idx];
    const std::size_t streams = c.n_antennas - used;
    result.winners.push_back(Winner{c.id, streams, used});
    used += streams;
    active.erase(std::find(active.begin(), active.end(), idx));
  }
  result.total_streams = used;
  return result;
}

}  // namespace nplus::mac
