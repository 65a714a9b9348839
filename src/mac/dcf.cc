#include "mac/dcf.h"

#include <algorithm>
#include <cassert>

namespace nplus::mac {

void BackoffEntity::start_new_packet(util::Rng& rng) {
  cw_ = cfg_.cw_min;
  counter_ = rng.uniform_int(0, cw_);
}

void BackoffEntity::on_collision(util::Rng& rng) {
  cw_ = std::min(cfg_.cw_max, cw_ * 2 + 1);
  counter_ = rng.uniform_int(0, cw_);
}

ContentionOutcome contend(std::size_t n_stations, util::Rng& rng,
                          const phy::MacTiming& timing, const DcfConfig& cfg,
                          double collision_cost_s) {
  // Delegates to the per-station-CW overload with every window at cw_min:
  // BackoffEntity construction and draw order match exactly, so both
  // overloads consume the stream identically.
  return contend(std::vector<int>(n_stations, cfg.cw_min), rng, timing, cfg,
                 collision_cost_s);
}

ContentionOutcome contend(const std::vector<int>& cw0, util::Rng& rng,
                          const phy::MacTiming& timing, const DcfConfig& cfg,
                          double collision_cost_s) {
  assert(!cw0.empty());
  std::vector<BackoffEntity> stations;
  stations.reserve(cw0.size());
  for (int cw : cw0) {
    // A station resuming a retry chain opens at its escalated window; its
    // ceiling never drops below that window (cw_max can only cap further
    // doubling, not undo escalation already paid for).
    DcfConfig per = cfg;
    per.cw_min = cw;
    per.cw_max = std::max(cfg.cw_max, cw);
    stations.emplace_back(per);
  }
  for (auto& s : stations) s.start_new_packet(rng);

  ContentionOutcome out;
  out.elapsed_s = timing.difs_s;

  for (;;) {
    // Find the soonest counter expiry.
    int min_counter = stations[0].counter();
    for (const auto& s : stations) {
      min_counter = std::min(min_counter, s.counter());
    }
    // Burn the idle slots.
    out.idle_slots += min_counter;
    out.elapsed_s += min_counter * timing.slot_s;
    for (auto& s : stations) {
      for (int i = 0; i < min_counter; ++i) s.tick();
    }
    // Who fires this slot?
    std::vector<std::size_t> firing;
    for (std::size_t i = 0; i < stations.size(); ++i) {
      if (stations[i].ready()) firing.push_back(i);
    }
    assert(!firing.empty());
    if (firing.size() == 1) {
      out.winner = firing[0];
      return out;
    }
    // Collision: everyone who fired backs off with doubled CW; the others
    // freeze (their counters are already > 0). DIFS restarts after the
    // collision clears.
    ++out.collisions;
    out.elapsed_s += collision_cost_s + timing.difs_s;
    for (std::size_t i : firing) stations[i].on_collision(rng);
  }
}

}  // namespace nplus::mac
