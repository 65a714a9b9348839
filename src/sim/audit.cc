#include "sim/audit.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "mac/airtime.h"
#include "phy/mcs.h"
#include "util/supervisor.h"

namespace nplus::sim {

AuditContext make_audit_context(const Scenario& scenario,
                                const SessionConfig& config) {
  AuditContext ctx;
  ctx.n_links = scenario.links.size();
  for (const Link& link : scenario.links) {
    ctx.max_concurrent_streams +=
        std::min(scenario.nodes[link.tx_node].n_antennas,
                 scenario.nodes[link.rx_node].n_antennas);
  }
  const auto& table = phy::mcs_table();
  ctx.peak_stream_mbps = table.back().bitrate_mbps;
  ctx.inter_round_gap_s = config.inter_round_gap_s;
  // Failure-aware rounds may sit out one ACK timeout each before the
  // medium is re-contended.
  ctx.ack_timeout_s = config.faults.enabled()
                          ? mac::ack_timeout_s(config.round.airtime)
                          : 0.0;
  ctx.n_rounds_cap = config.n_rounds;
  return ctx;
}

std::vector<std::string> audit_session(const SessionResult& result,
                                       const AuditContext& ctx) {
  std::vector<std::string> out;
  const auto fail = [&out](const std::string& line) { out.push_back(line); };
  const auto finite = [&](double v, const char* name) {
    if (!std::isfinite(v)) {
      std::ostringstream os;
      os << "non-finite " << name << " (" << v << ")";
      fail(os.str());
      return false;
    }
    return true;
  };
  const auto nonneg = [&](double v, const char* name) {
    if (finite(v, name) && v < 0.0) {
      std::ostringstream os;
      os << "negative " << name << " (" << v << ")";
      fail(os.str());
      return false;
    }
    return true;
  };

  // --- Finiteness and sign of every published scalar ---------------------
  nonneg(result.duration_s, "duration_s");
  nonneg(result.total_mbps, "total_mbps");
  nonneg(result.goodput_mbps, "goodput_mbps");
  nonneg(result.mean_winners_per_round, "mean_winners_per_round");
  nonneg(result.mean_streams_per_round, "mean_streams_per_round");
  nonneg(result.mean_active_links, "mean_active_links");
  finite(result.jain, "jain");
  bool links_ok = true;
  for (std::size_t l = 0; l < result.per_link_mbps.size(); ++l) {
    const std::string name = "per_link_mbps[" + std::to_string(l) + "]";
    links_ok &= nonneg(result.per_link_mbps[l], name.c_str());
  }
  for (std::size_t l = 0; l < result.per_link_goodput_mbps.size(); ++l) {
    const std::string name =
        "per_link_goodput_mbps[" + std::to_string(l) + "]";
    links_ok &= nonneg(result.per_link_goodput_mbps[l], name.c_str());
  }

  // --- Shape -------------------------------------------------------------
  for (const auto& [name, rates] :
       {std::pair{"per_link_mbps", &result.per_link_mbps},
        std::pair{"per_link_goodput_mbps", &result.per_link_goodput_mbps}}) {
    if (ctx.n_links > 0 && rates->size() != ctx.n_links) {
      std::ostringstream os;
      os << name << " has " << rates->size() << " entries for "
         << ctx.n_links << " links";
      fail(os.str());
    }
  }
  if (ctx.n_rounds_cap > 0 && result.rounds > ctx.n_rounds_cap) {
    std::ostringstream os;
    os << "rounds (" << result.rounds << ") exceeds the configured budget ("
       << ctx.n_rounds_cap << ")";
    fail(os.str());
  }
  if (result.idle_rounds > result.rounds) {
    std::ostringstream os;
    os << "idle_rounds (" << result.idle_rounds << ") exceeds rounds ("
       << result.rounds << ")";
    fail(os.str());
  }

  // --- Fairness: Jain's index lives in (0, 1] for any non-empty rate
  // vector (1/n when one link takes everything, 1 when all equal).
  if (!result.per_link_mbps.empty() && std::isfinite(result.jain) &&
      (result.jain <= 0.0 || result.jain > 1.0 + 1e-9)) {
    std::ostringstream os;
    os << "jain index " << result.jain << " outside (0, 1]";
    fail(os.str());
  }

  // --- Goodput can never exceed throughput: goodput counts each frame
  // once, throughput additionally counts lost-ACK redeliveries.
  if (std::isfinite(result.goodput_mbps) &&
      std::isfinite(result.total_mbps) &&
      result.goodput_mbps > result.total_mbps * (1.0 + 1e-9) + 1e-12) {
    std::ostringstream os;
    os << "goodput (" << result.goodput_mbps << " Mb/s) exceeds throughput ("
       << result.total_mbps << " Mb/s)";
    fail(os.str());
  }

  // --- PHY capacity: aggregate throughput is bounded by every link
  // delivering its maximum stream count at the top MCS simultaneously.
  if (links_ok && ctx.max_concurrent_streams > 0 &&
      std::isfinite(result.total_mbps)) {
    const double cap = ctx.peak_stream_mbps *
                       static_cast<double>(ctx.max_concurrent_streams);
    if (result.total_mbps > cap * (1.0 + 1e-6)) {
      std::ostringstream os;
      os << "throughput (" << result.total_mbps
         << " Mb/s) exceeds the PHY ceiling (" << cap << " Mb/s = "
         << ctx.max_concurrent_streams << " streams x "
         << ctx.peak_stream_mbps << " Mb/s)";
      fail(os.str());
    }
  }

  // --- Airtime conservation: elapsed = busy + accounted idle. Busy is the
  // per-round airtime sum; idle per round is at most the inter-round gap
  // plus (failure-aware sessions) one ACK timeout; churn idle slots are
  // already inside round_duration.
  if (result.rounds > 0 && std::isfinite(result.duration_s)) {
    const double busy = result.round_duration.mean() *
                        static_cast<double>(result.round_duration.count());
    const double tol = 1e-6 * (std::abs(busy) + result.duration_s + 1.0);
    if (busy > result.duration_s + tol) {
      std::ostringstream os;
      os << "busy airtime (" << busy << " s) exceeds elapsed time ("
         << result.duration_s << " s)";
      fail(os.str());
    }
    const double max_idle = static_cast<double>(result.rounds) *
                            (ctx.inter_round_gap_s + ctx.ack_timeout_s);
    if (result.duration_s > busy + max_idle + tol) {
      std::ostringstream os;
      os << "elapsed time (" << result.duration_s
         << " s) exceeds busy airtime (" << busy
         << " s) plus the maximum accountable idle (" << max_idle << " s)";
      fail(os.str());
    }
    if (result.round_duration.min() < 0.0) {
      std::ostringstream os;
      os << "negative per-round airtime (min " << result.round_duration.min()
         << " s)";
      fail(os.str());
    }
  }

  return out;
}

void audit_session_or_throw(const SessionResult& result,
                            const AuditContext& ctx) {
  const std::vector<std::string> violations = audit_session(result, ctx);
  if (violations.empty()) return;
  std::ostringstream os;
  os << "invariant audit failed (" << violations.size() << "):";
  for (const auto& v : violations) os << " [" << v << "]";
  throw util::InvariantError(os.str());
}

}  // namespace nplus::sim
