// Runtime invariant audits over session results.
//
// A simulator bug rarely crashes; it publishes a number that is quietly
// impossible — throughput above the PHY's physical ceiling, goodput above
// throughput, a Jain index outside (0, 1], airtime that does not add up to
// the elapsed sim clock, or a NaN that percolated through the accounting.
// The supervised sweep layer runs this auditor over every completed item
// and quarantines violators exactly like thrown exceptions
// (util::FailureKind::kInvariant), so a corrupt result is never silently
// aggregated into benchmark JSON.
//
// The checks are conservation laws, not tolerances on expected values:
// they hold for every correct session regardless of scenario, fidelity,
// dynamics, or fault plan, so a violation is always a bug (in the engine
// or in the checkpoint/restore path), never statistical noise.
#pragma once

#include <string>
#include <vector>

#include "sim/session.h"

namespace nplus::sim {

// Scenario-derived bounds the audit checks a result against.
struct AuditContext {
  std::size_t n_links = 0;
  // Physical ceiling on simultaneously delivered streams: the sum over
  // links of min(tx antennas, rx antennas). Aggregate throughput can never
  // exceed peak_stream_mbps * max_concurrent_streams.
  std::size_t max_concurrent_streams = 0;
  // Top-MCS PHY rate per spatial stream (Mb/s).
  double peak_stream_mbps = 27.0;
  // Per-round idle allowances for the airtime-conservation check: the gap
  // the session inserts between rounds and the ACK timeout a failure-aware
  // round may wait out. elapsed - busy must fit inside these.
  double inter_round_gap_s = 0.0;
  double ack_timeout_s = 0.0;
  // Configured round budget (0 = don't check).
  std::size_t n_rounds_cap = 0;
};

// Derives the context straight from the sweep item that produced a result.
AuditContext make_audit_context(const Scenario& scenario,
                                const SessionConfig& config);

// Returns one human-readable line per violated invariant; empty = clean.
std::vector<std::string> audit_session(const SessionResult& result,
                                       const AuditContext& ctx);

// Joins the violations into a util::InvariantError (thrown), so the
// supervisor can quarantine the item; no-op when the audit is clean.
void audit_session_or_throw(const SessionResult& result,
                            const AuditContext& ctx);

}  // namespace nplus::sim
