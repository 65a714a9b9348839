// Scenario engine, part 2: multi-round packet sessions.
//
// `run_nplus_round` evaluates ONE transmission opportunity. A session chains
// many of them into a packet-level simulation driven on mac::EventSim: each
// round runs the full n+ machinery (real DCF backoff by default, join
// handshakes, concurrent bodies, ACKs), the sim clock advances by the
// round's airtime, and the next round's contention starts when the medium
// goes idle again. Per-link delivery feeds streaming util::RunningStats, so
// a session reports per-link throughput, Jain fairness, and join-rate both
// cumulatively and as a time series — without retaining per-round samples.
#pragma once

#include <cstddef>
#include <vector>

#include "channel/evolution.h"
#include "phy/rate_control.h"
#include "sim/faults.h"
#include "sim/mobility.h"
#include "sim/round.h"
#include "util/quantile.h"
#include "util/stats.h"
#include "util/supervisor.h"

namespace nplus::util {
class TraceRing;
}

namespace nplus::sim {

// --- Session churn -------------------------------------------------------
//
// Flows (links) switch between backlogged and idle, and nodes power off and
// return, as memoryless (Poisson) processes: between rounds, each entity
// transitions with probability 1 - exp(-rate * dt) for the dt the previous
// round occupied. A link contends only while its flow is on AND both
// endpoints are present. Churn operates over the scenario's fixed node
// population — departed nodes may return, but brand-new nodes never appear
// mid-session (an eager World cannot grow channels; document-level
// limitation, not an RNG one).
struct ChurnConfig {
  double flow_arrival_hz = 0.0;    // idle flow -> backlogged
  double flow_departure_hz = 0.0;  // backlogged flow -> idle
  double node_leave_hz = 0.0;      // present node -> away
  double node_return_hz = 0.0;     // away node -> present
  // Initial flow state (nodes always start present).
  bool start_all_active = true;
  // Sim-clock step consumed by a slot in which no link is active (the cell
  // sits idle listening; nothing to contend for).
  double idle_step_s = 1e-3;

  bool any() const {
    return flow_arrival_hz > 0.0 || flow_departure_hz > 0.0 ||
           node_leave_hz > 0.0 || node_return_hz > 0.0 ||
           !start_all_active;
  }
};

// --- The dynamics switchboard --------------------------------------------
//
// Everything time-varying about a session, in one struct so call sites read
// as "this session is dynamic". Defaults are all-off; with active() ==
// false (and faults off, scheme kNplus) a session makes no dynamics draws —
// same RNG draw sequence, bit-identical traces to the pre-dynamics engine
// (the golden fixtures pin this).
struct DynamicsConfig {
  MobilityConfig mobility{};               // node motion between rounds
  channel::EvolutionConfig evolution{};    // Doppler / coherence / shadowing
  ChurnConfig churn{};                     // flow + node arrival/departure
  // History-driven MCS adaptation (AARF) instead of oracle eSNR selection.
  bool use_rate_control = false;
  phy::RateControlConfig rate_control{};

  bool active() const {
    return mobility.moves() || evolution.env_doppler_hz > 0.0 ||
           churn.any() || use_rate_control;
  }
};

// Which MAC scheme a session's rounds run. kDot11n exists so fault sweeps
// can put n+ and the stock baseline under the *identical* fault plan and
// session accounting (bench/configs/faults.cfg) — it is the same 802.11n
// round the RoundFn baseline evaluates, in the session engine's shape.
enum class Scheme {
  kNplus,
  kDot11n,
};

struct SessionConfig {
  // Rounds to simulate (a round = one n+ transmission opportunity).
  std::size_t n_rounds = 200;
  // Optional sim-clock horizon (seconds; 0 = none): the session stops
  // scheduling rounds past it and the clock settles exactly at the horizon
  // (EventSim::run(until) semantics), so rates include any idle tail.
  double max_duration_s = 0.0;
  // Idle gap between a round ending and the next contention starting.
  double inter_round_gap_s = 0.0;
  // Take a time-series snapshot every this many rounds (0 = no series).
  std::size_t snapshot_every = 25;
  // Per-round protocol knobs. Sessions default to the REAL DCF backoff path
  // (slotted CSMA/CA, collisions, exponential backoff) instead of the
  // paper's random-winner methodology — that is the point of a session.
  // `round.fidelity` selects the delivery-scoring fidelity (sim::Fidelity):
  // the same session seed replays the identical protocol trace in either
  // mode, so abstracted/full-PHY runs are directly comparable round by
  // round (tests/test_fidelity.cc relies on this).
  RoundConfig round = [] {
    RoundConfig r;
    r.dcf_contention = true;
    return r;
  }();
  // Dynamic-network knobs (mobility, channel evolution, churn, adaptive
  // rates). All-off by default; active() makes the session live (see
  // run_session below).
  DynamicsConfig dynamics{};
  // MAC scheme the rounds run (see Scheme). kDot11n sessions are live.
  Scheme scheme = Scheme::kNplus;
  // Fault injection + failure-aware MAC (sim/faults.h). Disabled by
  // default; enabled() makes the session live and wires a FaultInjector
  // into every round — per-frame retry chains, ACK timeouts,
  // goodput-vs-throughput accounting. Disabled sessions make no fault
  // draws: same draws, bit-identical traces (goldens).
  FaultConfig faults{};
  // Cooperative-cancellation hook for the watchdog layer
  // (util/supervisor.h): when set, the session polls the token at every
  // round boundary and aborts by throwing util::TimeoutError, so a
  // degenerate world can never wedge a sweep past its wall-clock budget.
  // nullptr (the default) is poll-free and cannot be cancelled. Polling
  // consumes no RNG draws: a session that is never cancelled is
  // bit-identical with or without the token.
  const util::CancelToken* cancel = nullptr;
  // Optional telemetry sink (util/trace.h): when set, the session emits
  // kSessionStart / kRoundEnd / kSessionEnd records into this per-worker
  // ring and wires the EventSim kernel to emit kSimEvent per dispatched
  // event. Emission is draw-free and every recorded time is a sim-clock
  // value (never wall clock), so a traced session's RNG trace, results,
  // and merged trace bytes are identical across thread counts and to an
  // untraced run. nullptr (default) costs one branch per round.
  util::TraceRing* trace = nullptr;

  // Rejects NaN/negative durations and rates, zero-probability nonsense,
  // and invalid fault plans with std::invalid_argument (clear message)
  // instead of silent UB. run_session calls this on entry.
  void validate() const;
};

// Cumulative state at a snapshot point (taken at a round's end).
struct SessionSnapshot {
  double t_s = 0.0;          // sim clock at the snapshot
  std::size_t rounds = 0;    // rounds completed so far
  double total_mbps = 0.0;   // cumulative aggregate throughput
  double jain = 0.0;         // Jain index over cumulative per-link rates
  double join_rate = 0.0;    // mean winners (concurrent groups) per round
};

struct SessionResult {
  std::size_t rounds = 0;
  double duration_s = 0.0;               // sim clock at session end
  std::vector<double> per_link_mbps;     // indexed like Scenario::links
  double total_mbps = 0.0;
  double jain = 0.0;                     // fairness over per_link_mbps
  double mean_winners_per_round = 0.0;   // the session's "join rate"
  double mean_streams_per_round = 0.0;
  util::RunningStats round_duration;     // per-round airtime stats
  // Streaming per-round airtime quantiles (p50/p95/p99 at city scale
  // without O(rounds) memory). Fed exactly where round_duration is; the
  // sweep layer merges per-item sketches in item order, which is
  // deterministic and thread-count independent (util/quantile.h).
  util::QuantileSketch round_duration_q;
  std::vector<SessionSnapshot> series;
  // Dynamics counters. Without churn or faults idle_rounds is always 0 and
  // mean_active_links equals the link count (everything is always on).
  std::size_t idle_rounds = 0;     // slots where churn left no active link
  double mean_active_links = 0.0;  // mean churn-mask popcount per round

  // --- Failure-aware accounting -----------------------------------------
  // Throughput (total_mbps / per_link_mbps) counts every bit the receiver
  // got, including retransmissions of frames it already had (lost-ACK
  // double deliveries). Goodput counts each frame once. With faults
  // disabled the two are identical by construction.
  double goodput_mbps = 0.0;
  std::vector<double> per_link_goodput_mbps;
  // Non-finite eSNR observations clamped across the session (degenerate /
  // near-singular channels) — the NaN guard's audit trail.
  std::size_t degenerate_esnr = 0;
  // Retry/drop/outage/recovery counters (all-zero with faults disabled).
  FaultStats faults;
};

// Jain's fairness index (sum x)^2 / (n * sum x^2) over non-negative rates:
// 1 = perfectly fair, 1/n = one link takes everything. Returns 0 for an
// empty vector and 1 when every rate is zero (nobody is ahead of anybody).
double jain_index(const std::vector<double>& xs);

// Runs a session of `config.n_rounds` rounds on `world`. Deterministic in
// `rng` (rounds consume the stream in round order), so forked streams make
// whole sessions reproducible under parallel dispatch. With n_rounds == 0
// it returns at once: zero rates for every link, no draws.
//
// A session is *live* when config.dynamics.active(), config.faults.enabled()
// or scheme == kDot11n. A live session forks one dynamics stream off `rng`
// at start, and each round is preceded by a physical-world step covering the
// previous round's airtime: mobility advances node positions,
// World::advance applies the Doppler-matched Gauss-Markov channel evolution
// and path-loss/shadowing drift, and churn re-draws the active-link mask.
// After the round, the links that transmitted re-measure their reciprocal
// CSI (everyone else's keeps aging). Any other session forks nothing and
// never steps `world` or re-measures its CSI: it is the pre-dynamics draw
// sequence exactly.
//
// With config.faults.enabled(), a FaultInjector (own forked stream) rides
// the whole session: node outages mask links out of contention, header
// losses gate joiners, every transmitted frame is realized
// delivered/lost, un-ACKed frames cost an ACK timeout (an EventSim timer
// that extends the busy period) and re-enter contention with escalated
// windows until ACKed or dropped at the retry limit. SessionResult then
// separates goodput from throughput and carries the FaultStats counters.
SessionResult run_session(World& world, const Scenario& scenario,
                          util::Rng& rng, const SessionConfig& config);

}  // namespace nplus::sim
