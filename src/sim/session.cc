#include "sim/session.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "baselines/beamforming.h"
#include "baselines/dot11n.h"
#include "mac/airtime.h"
#include "util/trace.h"

namespace nplus::sim {

namespace {

[[noreturn]] void reject(const std::string& what, double v) {
  throw std::invalid_argument("SessionConfig: " + what + ", got " +
                              std::to_string(v));
}

void check_finite_nonneg(double v, const char* name) {
  if (!std::isfinite(v) || v < 0.0) {
    reject(std::string(name) + " must be finite and >= 0", v);
  }
}

void check_fraction(double v, const char* name) {
  if (!(v >= 0.0 && v <= 1.0)) {
    reject(std::string(name) + " must be in [0, 1]", v);
  }
}

// Watchdog cancellation point, polled at every round boundary. Draw-free,
// so an uncancelled session's trace is untouched; on cancellation the
// session unwinds out of its round loop via util::TimeoutError and the
// supervisor quarantines the item.
void poll_cancel(const util::CancelToken* cancel, std::size_t rounds_done) {
  if (cancel != nullptr && cancel->cancelled()) {
    throw util::TimeoutError(
        "session cancelled by watchdog after " +
        std::to_string(rounds_done) + " completed rounds");
  }
}

}  // namespace

void SessionConfig::validate() const {
  check_finite_nonneg(inter_round_gap_s, "inter_round_gap_s");
  if (round.packet_bytes == 0) {
    throw std::invalid_argument("SessionConfig: round.packet_bytes must be"
                                " >= 1 (a round transmits a packet)");
  }
  if (!std::isfinite(round.rate_margin_db)) {
    reject("round.rate_margin_db must be finite", round.rate_margin_db);
  }
  check_finite_nonneg(dynamics.churn.flow_arrival_hz,
                      "churn.flow_arrival_hz");
  check_finite_nonneg(dynamics.churn.flow_departure_hz,
                      "churn.flow_departure_hz");
  check_finite_nonneg(dynamics.churn.node_leave_hz, "churn.node_leave_hz");
  check_finite_nonneg(dynamics.churn.node_return_hz,
                      "churn.node_return_hz");
  if (!std::isfinite(dynamics.churn.idle_step_s) ||
      dynamics.churn.idle_step_s <= 0.0) {
    reject("churn.idle_step_s must be finite and > 0 (the sim clock must "
           "advance through idle slots)", dynamics.churn.idle_step_s);
  }
  check_finite_nonneg(dynamics.mobility.speed_min_mps,
                      "mobility.speed_min_mps");
  check_finite_nonneg(dynamics.mobility.speed_max_mps,
                      "mobility.speed_max_mps");
  if (dynamics.mobility.speed_min_mps > dynamics.mobility.speed_max_mps) {
    reject("mobility.speed_min_mps must be <= speed_max_mps",
           dynamics.mobility.speed_min_mps);
  }
  check_finite_nonneg(dynamics.mobility.pause_s, "mobility.pause_s");
  check_fraction(dynamics.mobility.mobile_fraction,
                 "mobility.mobile_fraction");
  if (!std::isfinite(dynamics.evolution.carrier_hz) ||
      dynamics.evolution.carrier_hz <= 0.0) {
    reject("evolution.carrier_hz must be finite and > 0",
           dynamics.evolution.carrier_hz);
  }
  check_finite_nonneg(dynamics.evolution.env_doppler_hz,
                      "evolution.env_doppler_hz");
  if (!std::isfinite(dynamics.evolution.shadow_decorr_m) ||
      dynamics.evolution.shadow_decorr_m <= 0.0) {
    reject("evolution.shadow_decorr_m must be finite and > 0",
           dynamics.evolution.shadow_decorr_m);
  }
  faults.validate();
  if (scheme == Scheme::kBeamforming &&
      (round.dcf_contention || faults.enabled() || dynamics.active())) {
    throw std::invalid_argument(
        "SessionConfig: the beamforming scheme runs only static sessions "
        "without DCF contention, faults or dynamics");
  }
}

double jain_index(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0, sum_sq = 0.0;
  for (double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(xs.size()) * sum_sq);
}

namespace {

// One round of `scheme`. A beamforming session is never live, so it has
// no mask to pass on.
RoundResult run_scheme_round(Scheme scheme, const World& world,
                             const Scenario& scenario, util::Rng& rng,
                             const RoundConfig& config,
                             const std::vector<std::uint8_t>* active) {
  switch (scheme) {
    case Scheme::kDot11n:
      return baselines::run_dot11n_round(world, scenario, rng, config,
                                         active);
    case Scheme::kBeamforming:
      return baselines::run_beamforming_round(world, scenario, rng, config);
    case Scheme::kNplus:
      break;
  }
  return run_nplus_round(world, scenario, rng, config, active);
}

// Draw-free scaffolding of the round loop (it touches no RNG, so it cannot
// perturb any session's trace).

// Cumulative snapshot at sim time t, appended to out.series.
void take_snapshot(SessionResult& out, const std::vector<double>& link_bits,
                   const util::RunningStats& winners_per_round, double t) {
  SessionSnapshot s;
  s.t_s = t;
  s.rounds = out.rounds;
  double bits = 0.0;
  for (double v : link_bits) bits += v;
  s.total_mbps = t > 0.0 ? bits / t / 1e6 : 0.0;
  std::vector<double> rates(link_bits.size());
  for (std::size_t l = 0; l < link_bits.size(); ++l) {
    rates[l] = t > 0.0 ? link_bits[l] / t / 1e6 : 0.0;
  }
  s.jain = jain_index(rates);
  s.join_rate = winners_per_round.mean();
  out.series.push_back(s);
}

// Final accounting. Session duration: the end of the last round's airtime,
// its ACK timeout included — the session clock alone stops at that
// round's *start*.
void finalize_session(SessionResult& out,
                      const std::vector<double>& link_bits,
                      const std::vector<double>& goodput_bits,
                      const util::RunningStats& winners_per_round,
                      const util::RunningStats& streams_per_round,
                      double clock_s, double busy_end_s) {
  out.duration_s = std::max(clock_s, busy_end_s);
  if (out.duration_s > 0.0) {
    double bits = 0.0;
    double good = 0.0;
    for (std::size_t l = 0; l < link_bits.size(); ++l) {
      out.per_link_mbps[l] = link_bits[l] / out.duration_s / 1e6;
      out.per_link_goodput_mbps[l] = goodput_bits[l] / out.duration_s / 1e6;
      bits += link_bits[l];
      good += goodput_bits[l];
    }
    out.total_mbps = bits / out.duration_s / 1e6;
    out.goodput_mbps = good / out.duration_s / 1e6;
  }
  out.jain = jain_index(out.per_link_mbps);
  out.mean_winners_per_round = winners_per_round.mean();
  out.mean_streams_per_round = streams_per_round.mean();
}

}  // namespace

// One round loop for every session. A *live* session — dynamics active or
// faults enabled — steps the physical world before
// each round (mobility -> channel evolution -> churn mask) and re-measures
// CSI for the links that transmitted after it, all from one stream forked
// off `rng` at session start. Any other session forks nothing, never steps
// the world or re-measures its CSI, and keeps the pre-dynamics draw
// sequence exactly (the golden fixtures pin this).
//
// The failure-aware MAC (config.faults) rides on a FaultInjector with its
// own forked stream: it masks crashed nodes out of contention, gates
// joiners on overheard headers, realizes each transmitted frame's fate,
// and runs per-frame retry chains — un-ACKed rounds stretch by the ACK
// timeout, retries re-enter contention with escalated windows, and goodput
// is scored separately from throughput. Scheme::kDot11n and
// Scheme::kBeamforming swap run_nplus_round for an isolated-transmission
// baseline round under the same session machinery, so the schemes compare
// like for like.
SessionResult run_session(World& world, const Scenario& scenario,
                          util::Rng& rng, const SessionConfig& config) {
  config.validate();
  SessionResult out;
  const std::size_t n_links = scenario.links.size();
  out.per_link_mbps.assign(n_links, 0.0);
  out.per_link_goodput_mbps.assign(n_links, 0.0);
  if (config.n_rounds == 0) {
    out.jain = jain_index(out.per_link_mbps);
    return out;
  }

  const DynamicsConfig& dyn = config.dynamics;
  const bool live = dyn.active() || config.faults.enabled();
  // Each fork costs two parent draws, so a stream is forked only for the
  // sessions that use it.
  std::optional<util::Rng> dyn_rng;
  std::optional<Mobility> mobility;
  if (live) {
    dyn_rng.emplace(rng.fork(0xD1AA));
    std::vector<channel::Location> initial;
    initial.reserve(world.n_nodes());
    for (std::size_t i = 0; i < world.n_nodes(); ++i) {
      initial.push_back(world.node_position(i));
    }
    mobility.emplace(std::move(initial), dyn.mobility, *dyn_rng);
  }
  std::optional<FaultInjector> inj;
  if (config.faults.enabled()) {
    inj.emplace(config.faults, scenario, rng.fork(0xFA17));
  }

  std::vector<std::uint8_t> flow_on(n_links, 1);
  std::vector<std::uint8_t> present(world.n_nodes(), 1);
  std::vector<std::uint8_t> mask(n_links, 1);
  // Only a live session can mask links out; the others skip the round
  // builder's filtering work.
  const std::vector<std::uint8_t>* active = live ? &mask : nullptr;

  phy::RateController rate_ctl(dyn.rate_control);
  RoundConfig round_cfg = config.round;
  if (dyn.use_rate_control) round_cfg.rate_control = &rate_ctl;
  if (inj) round_cfg.faults = &*inj;

  if (config.trace != nullptr) {
    config.trace->emit(util::TraceEvent::kSessionStart, 0.0, n_links);
  }
  std::vector<double> link_bits(n_links, 0.0);
  std::vector<double> goodput_bits(n_links, 0.0);
  util::RunningStats winners_per_round;
  util::RunningStats streams_per_round;
  util::RunningStats active_links;
  double now = 0.0;          // session clock: the last round start/ACK expiry
  double busy_end_s = 0.0;   // sim time when the last round's body+ACK ended
  double last_step_t = 0.0;  // sim time the world state is current for
  std::uint64_t clock_steps = 0;
  const double ack_timeout = mac::ack_timeout_s(round_cfg.airtime);

  // Moves the clock to `t` (a round start or an ACK-timeout expiry) and
  // records the step as kSimEvent, `a` counting the steps so far.
  const auto step_clock = [&](double t) {
    now = t;
    if (config.trace != nullptr) {
      config.trace->emit(util::TraceEvent::kSimEvent, now, clock_steps, now);
    }
    ++clock_steps;
  };
  // P(at least one Poisson event of `rate` in dt) — the memoryless
  // transition probability for flows and nodes.
  const auto transitions = [&](double rate_hz, double dt) {
    return rate_hz > 0.0 &&
           dyn_rng->bernoulli(1.0 - std::exp(-rate_hz * dt));
  };

  // One iteration per round: world and fault step, mask, the round (or an
  // idle slot), accounting, feedback, the ACK timeout of un-ACKed frames,
  // the snapshot. The next round starts when the medium goes idle again,
  // after the inter-round gap.
  for (step_clock(0.0);; step_clock(busy_end_s + config.inter_round_gap_s)) {
    poll_cancel(config.cancel, out.rounds);
    // --- Physical-world step: the time since the last step elapsed with
    // the previous round on the air; the world moved underneath it.
    const double dt = now - last_step_t;
    last_step_t = now;
    if (live && dt > 0.0) {
      mobility->advance(dt, *dyn_rng);
      world.advance(mobility->positions(), mobility->speed_mps(), dt,
                    dyn.evolution, *dyn_rng);
      for (std::size_t l = 0; l < n_links; ++l) {
        flow_on[l] = flow_on[l]
                         ? (transitions(dyn.churn.flow_departure_hz, dt)
                                ? 0 : 1)
                         : (transitions(dyn.churn.flow_arrival_hz, dt)
                                ? 1 : 0);
      }
      for (std::size_t i = 0; i < present.size(); ++i) {
        present[i] = present[i]
                         ? (transitions(dyn.churn.node_leave_hz, dt) ? 0 : 1)
                         : (transitions(dyn.churn.node_return_hz, dt) ? 1
                                                                      : 0);
      }
    }
    // Fault step: per-round memos reset, the node crash/restart process
    // advances over the same dt the physical world just covered, and links
    // with a crashed endpoint vanish from this round's mask.
    if (inj) {
      inj->begin_round();
      inj->advance_outages(dt, now);
    }
    std::size_t n_active = 0;
    for (std::size_t l = 0; l < n_links; ++l) {
      mask[l] = (flow_on[l] != 0 && present[scenario.links[l].tx_node] &&
                 present[scenario.links[l].rx_node])
                    ? 1
                    : 0;
    }
    if (inj) inj->apply_outage_mask(mask, now);
    for (std::size_t l = 0; l < n_links; ++l) n_active += mask[l];
    active_links.add(static_cast<double>(n_active));

    bool any_unacked = false;
    if (n_active == 0) {
      // Nobody has traffic: the cell idles for one listen interval. Counts
      // as a (delivery-free) round so churned-dead sessions terminate.
      out.rounds += 1;
      out.idle_rounds += 1;
      winners_per_round.add(0.0);
      streams_per_round.add(0.0);
      out.round_duration.add(dyn.churn.idle_step_s);
      out.round_duration_q.add(dyn.churn.idle_step_s);
      busy_end_s = now + dyn.churn.idle_step_s;
      if (config.trace != nullptr) {
        config.trace->emit(util::TraceEvent::kRoundEnd, busy_end_s, 0,
                           dyn.churn.idle_step_s);
      }
    } else {
      const RoundResult res = run_scheme_round(config.scheme, world,
                                               scenario, rng, round_cfg,
                                               active);
      out.rounds += 1;
      winners_per_round.add(static_cast<double>(res.winner_order.size()));
      streams_per_round.add(static_cast<double>(res.total_streams));
      out.round_duration.add(res.duration_s);
      out.round_duration_q.add(res.duration_s);
      out.degenerate_esnr += res.degenerate_esnr;
      if (inj) inj->add_degenerate_esnr(res.degenerate_esnr);
      busy_end_s = now + res.duration_s;
      if (config.trace != nullptr) {
        config.trace->emit(util::TraceEvent::kRoundEnd, busy_end_s,
                           res.winner_order.size(), res.duration_s);
      }

      // --- Delivery accounting. Fault-free: the round's (expected or
      // realized) delivered bits, goodput == throughput. Fault-aware: each
      // transmitted frame is realized whole — delivered or not, ACKed or
      // not — and scored frame by frame; retransmitted deliveries of a
      // frame the receiver already had (lost ACKs) count toward throughput
      // but not goodput.
      if (!inj) {
        for (std::size_t l = 0; l < n_links; ++l) {
          link_bits[l] += res.links[l].delivered_bits;
          goodput_bits[l] += res.links[l].delivered_bits;
        }
      } else {
        for (std::size_t l = 0; l < n_links; ++l) {
          const LinkOutcome& o = res.links[l];
          if (o.streams == 0 || o.mcs_index < 0 || o.offered_bits <= 0.0) {
            continue;  // link did not put a frame on the air
          }
          const bool phys = inj->realize_delivery(
              o.per, round_cfg.fidelity == Fidelity::kFullPhy);
          const FaultInjector::FrameVerdict v =
              inj->on_frame(l, phys, busy_end_s);
          if (v.delivered) {
            link_bits[l] += o.offered_bits;
            if (!v.duplicate) goodput_bits[l] += o.offered_bits;
          }
          // Any un-ACKed frame — lost body, lost ACK, or the final attempt
          // of a dropped chain — makes its sender sit out the ACK timeout.
          any_unacked |= !v.acked;
        }
      }

      // --- Feedback step: links that transmitted learn from it. Their
      // transmitters saw ACKs (AARF observations) and heard fresh
      // preambles from their receivers (reciprocal CSI re-measured); every
      // other belief in the cell keeps aging toward uselessness. An
      // injected CSI failure silently loses one re-measurement: the belief
      // keeps aging.
      if (live) {
        for (std::size_t l = 0; l < n_links; ++l) {
          const LinkOutcome& o = res.links[l];
          if (o.streams == 0 || o.mcs_index < 0) continue;
          if (dyn.use_rate_control) rate_ctl.observe(l, o.per < 0.5);
          if (!inj || inj->csi_measurement_ok()) {
            world.refresh_csi(scenario.links[l].tx_node,
                              scenario.links[l].rx_node, *dyn_rng);
          }
        }
      }
    }

    if (any_unacked) {
      // Senders of un-ACKed frames wait out the ACK timeout before the
      // medium is contended again; its expiry extends the busy period.
      step_clock(busy_end_s + ack_timeout);
      busy_end_s = now;
    }
    if (config.snapshot_every > 0 &&
        out.rounds % config.snapshot_every == 0) {
      take_snapshot(out, link_bits, winners_per_round, busy_end_s);
    }
    if (out.rounds >= config.n_rounds) break;
  }

  finalize_session(out, link_bits, goodput_bits, winners_per_round,
                   streams_per_round, now, busy_end_s);
  out.mean_active_links = active_links.mean();
  if (inj) out.faults = inj->stats();
  if (config.trace != nullptr) {
    config.trace->emit(util::TraceEvent::kSessionEnd, out.duration_s,
                       out.rounds, out.duration_s);
  }
  return out;
}

}  // namespace nplus::sim
