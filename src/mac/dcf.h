// 802.11 DCF contention (slotted CSMA/CA with binary exponential backoff).
//
// n+ keeps 802.11's contention machinery intact (§3.1): nodes draw a backoff
// from [0, CW], count down idle slots, and transmit when the counter hits
// zero. Two or more counters reaching zero in the same slot collide; the
// colliders double CW and redraw. n+ reuses this same procedure for the
// *secondary* contention rounds over unused degrees of freedom, where
// "idle" is judged by multi-dimensional carrier sense instead of raw power.
#pragma once

#include <vector>

#include "phy/ofdm_params.h"
#include "util/rng.h"

namespace nplus::mac {

struct DcfConfig {
  int cw_min = 15;
  int cw_max = 1023;
};

// Per-station backoff state.
class BackoffEntity {
 public:
  explicit BackoffEntity(const DcfConfig& cfg = {}) : cfg_(cfg) {}

  // Draws a fresh backoff counter for a new packet.
  void start_new_packet(util::Rng& rng);
  // Doubles the window after a collision and redraws.
  void on_collision(util::Rng& rng);

  int counter() const { return counter_; }
  int cw() const { return cw_; }

  // Decrements during an idle slot.
  void tick() {
    if (counter_ > 0) --counter_;
  }
  bool ready() const { return counter_ == 0; }

 private:
  DcfConfig cfg_;
  int cw_ = 15;
  int counter_ = 0;
};

// Outcome of running one contention round among `n` stations until exactly
// one wins (collisions are resolved inside).
struct ContentionOutcome {
  std::size_t winner = 0;
  int idle_slots = 0;       // slots burned before the winning transmission
  int collisions = 0;       // collision events along the way
  double elapsed_s = 0.0;   // DIFS + slots + collision overheads
};

// Simulates a full contention round among `n_stations` stations that all
// have traffic. `collision_cost_s` is the airtime wasted per collision
// (the colliding transmission + timeout). Deterministic given `rng`.
ContentionOutcome contend(std::size_t n_stations, util::Rng& rng,
                          const phy::MacTiming& timing = {},
                          const DcfConfig& cfg = {},
                          double collision_cost_s = 500e-6);

// Same contention, but station i starts with its own contention window
// cw0[i] — the failure-aware MAC's escalated windows: a station mid-way
// through a retry chain re-contends with the doubled CW its chain reached,
// not a fresh cw_min (802.11 keeps the window across the retry). With every
// cw0[i] == cfg.cw_min this is draw-for-draw identical to the overload
// above (the faults-off identity the goldens pin).
ContentionOutcome contend(const std::vector<int>& cw0, util::Rng& rng,
                          const phy::MacTiming& timing = {},
                          const DcfConfig& cfg = {},
                          double collision_cost_s = 500e-6);

}  // namespace nplus::mac
