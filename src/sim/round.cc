#include "sim/round.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "linalg/decomp.h"
#include "linalg/subspace.h"
#include "nulling/precoder.h"
#include "phy/esnr.h"
#include "sim/faults.h"
#include "util/units.h"

namespace nplus::sim {

namespace {

using linalg::cdouble;
using phy::Mcs;

constexpr std::size_t kSc = World::kSubcarriers;

// Clamps non-finite post-equalization SINRs to zero and reports how many
// there were. Near-singular evolved channels (and injected degenerate CSI)
// can push the ZF math to NaN/Inf; a zero SINR takes the same "this stream
// is undecodable" path every downstream consumer already handles, instead
// of NaN propagating into eSNR averages and PER tables. Finite values —
// including legitimate zeros and negatives — pass through untouched, so
// the fault-free trace is unchanged.
std::size_t sanitize_sinrs(std::vector<double>& sinrs) {
  std::size_t n = 0;
  for (double& s : sinrs) {
    if (!std::isfinite(s)) {
      s = 0.0;
      ++n;
    }
  }
  return n;
}

// Copies columns `cols` of `src` into `dst` from column `at` on and returns
// the next free column: observations are assembled in matrices sized once,
// in the column order the receiver sees them.
std::size_t put_cols(const CMat& src, const std::vector<std::size_t>& cols,
                     CMat& dst, std::size_t at) {
  assert(src.rows() == dst.rows() && at + cols.size() <= dst.cols());
  for (std::size_t c : cols) {
    for (std::size_t r = 0; r < src.rows(); ++r) dst(r, at) = src(r, c);
    ++at;
  }
  return at;
}

// put_cols over every column of `src`.
std::size_t put_all_cols(const CMat& src, CMat& dst, std::size_t at) {
  assert(src.rows() == dst.rows() && at + src.cols() <= dst.cols());
  for (std::size_t r = 0; r < src.rows(); ++r) {
    for (std::size_t c = 0; c < src.cols(); ++c) dst(r, at + c) = src(r, c);
  }
  return at + src.cols();
}

// Effective channel out = amp * (h * v) of one subcarrier: mul_into, then
// the naive complex product by (amp, 0) that linalg::simd::scale computes,
// so the result is byte-identical to the batch kernels' per lane. The
// products with the zero imaginary part stay: they set signed zeros and
// carry NaN exactly as the kernel does.
void effective_into(const CMat& h, const CMat& v, double amp, CMat& out) {
  linalg::mul_into(h, v, out);
  const double si = 0.0;
  cdouble* p = out.data();
  for (std::size_t i = 0; i < out.rows() * out.cols(); ++i) {
    const double tr = p[i].real();
    const double ti = p[i].imag();
    p[i] = {tr * amp - ti * si, tr * si + ti * amp};
  }
}

}  // namespace

std::vector<std::size_t> Scenario::transmitters() const {
  std::vector<std::size_t> out;
  for (const auto& l : links) {
    if (std::find(out.begin(), out.end(), l.tx_node) == out.end()) {
      out.push_back(l.tx_node);
    }
  }
  return out;
}

std::vector<std::size_t> Scenario::links_of(std::size_t tx) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < links.size(); ++i) {
    if (links[i].tx_node == tx) out.push_back(i);
  }
  return out;
}

namespace {

struct ActiveLink {
  ActiveLink() = default;
  ActiveLink(ActiveLink&&) = default;
  ActiveLink& operator=(ActiveLink&&) = default;
  ActiveLink(const ActiveLink&) = delete;
  ActiveLink& operator=(const ActiveLink&) = delete;

  std::size_t link_idx = 0;
  std::size_t rx_node = 0;
  std::size_t n_streams = 0;
  std::vector<std::size_t> cols;       // columns of the group precoder
  int mcs = -1;
  double esnr_db = -100.0;
  // Per subcarrier: W = orthogonal_complement(U) of the advertised
  // unwanted space U (N x dim W), the receiver's interference-free
  // directions, and W^H, the rows joiners' nulling constraints and the
  // Eq. 7 own rows read. Computed once when the link advertises.
  std::vector<CMat> receive_space;
  std::vector<CMat> receive_rows;
  std::vector<CMat> g_est;             // receiver's data-preamble estimate
  // Per subcarrier: the receiver's combiner, solved by the join-time SINR
  // evaluation and read back by finalize (same W, g_est and noise).
  std::vector<ZfSolve> solve;
  // Join-time SINRs as zf_stream_sinr returned them (subcarrier-major),
  // before fault poisoning and sanitizing. For the last admitted group they
  // are also the final SINRs: nobody joined after it.
  std::vector<double> join_sinrs;
};

// Effective channels of one group at one node, per subcarrier: the truth
// (amplitude included) and that node's estimate of it. Empty until read.
struct NodeChannels {
  std::vector<CMat> truth;
  std::vector<CMat> est;
};

struct ActiveGroup {
  ActiveGroup() = default;
  ActiveGroup(ActiveGroup&&) = default;
  ActiveGroup& operator=(ActiveGroup&&) = default;
  ActiveGroup(const ActiveGroup&) = delete;
  ActiveGroup& operator=(const ActiveGroup&) = delete;

  std::size_t tx_node = 0;
  std::size_t m = 0;                   // streams
  double stream_amp = 1.0;             // per-stream amplitude scale
  std::vector<CMat> v;                 // per subcarrier, M x m, unit columns
  std::vector<ActiveLink> links;
  // Delay of this group's body start relative to the first winner's body
  // start: the secondary contention + handshake happen *during* the ongoing
  // transmission (§3.1/§6.3), so a joiner pays in lost body symbols, not in
  // extra round airtime.
  double body_start_offset_s = 0.0;
  // This group's effective channels, indexed by node. Rolling the group
  // back drops them with it.
  std::vector<NodeChannels> at_node;
};

// Per-subcarrier constraint lists of the receivers already on the air, as a
// joiner's precoder sees them.
using OngoingLists = std::vector<std::vector<nulling::OngoingReceiver>>;

class RoundBuilder {
 public:
  RoundBuilder(const World& world, const Scenario& scenario, util::Rng& rng,
               const RoundConfig& config,
               const std::vector<std::uint8_t>* active_links)
      : w_(world), sc_(scenario), rng_(rng), cfg_(config),
        active_(active_links) {}

  RoundResult run();

 private:
  // Churn mask: a link whose entry is zero has no traffic this round (flow
  // departed or an endpoint left). nullptr = everything active.
  bool link_active(std::size_t li) const {
    return active_ == nullptr || (*active_)[li] != 0;
  }
  std::vector<std::size_t> active_links_of(std::size_t tx) const {
    std::vector<std::size_t> out = sc_.links_of(tx);
    if (active_ == nullptr) return out;  // no mask: no filtering work
    out.erase(std::remove_if(out.begin(), out.end(),
                             [&](std::size_t li) {
                               return !link_active(li);
                             }),
              out.end());
    return out;
  }
  // Transmitters with at least one active link: Scenario::transmitters()
  // filtered, so the contention population keeps its order (and the
  // no-mask path reproduces it exactly, draw for draw).
  std::vector<std::size_t> active_transmitters() const {
    std::vector<std::size_t> out = sc_.transmitters();
    if (active_ == nullptr) return out;
    out.erase(std::remove_if(out.begin(), out.end(),
                             [&](std::size_t tx) {
                               const auto links = sc_.links_of(tx);
                               return std::none_of(
                                   links.begin(), links.end(),
                                   [&](std::size_t li) {
                                     return link_active(li);
                                   });
                             }),
              out.end());
    return out;
  }
  // True effective channel of group g at node x on subcarrier s, including
  // the per-stream amplitude (N_x x m).
  const std::vector<CMat>& eff_true(std::size_t g, std::size_t node);
  // One cached receiver-side estimate of the same (the estimate node x made
  // from group g's data preamble / overheard handshake).
  const std::vector<CMat>& eff_est(std::size_t g, std::size_t node);

  bool admission_ok(std::size_t tx, double* power_backoff_db) const;
  bool try_join(std::size_t tx);
  // One attempt at joining with at most `m_target` streams over the
  // candidate `links`; rolls itself back and returns false if no link of
  // the group can sustain any rate.
  bool try_join_with(std::size_t tx, std::size_t m_target,
                     const std::vector<std::size_t>& links, double power_scale,
                     const OngoingLists& ongoing);
  void rollback_group(std::size_t g_idx);

  // eff_true(g, node) of every admitted group g, indexed by group.
  std::vector<const std::vector<CMat>*> truths_at(std::size_t node);
  // Fills `obs` with what link l of group g sees on subcarrier s while
  // every admitted group is on the air: its own columns of group g, then,
  // in group order, every other group's columns and (at g) its siblings'
  // columns; plus its receive space and the noise. g_est and the solve
  // slot are the caller's. `truths` is truths_at(l.rx_node).
  void observe(std::size_t g, const ActiveLink& l, std::size_t s,
               const std::vector<const std::vector<CMat>*>& truths,
               RxObservation& obs) const;
  // SINRs of link l of group g with every group on the air, subcarrier-
  // major; with `models` set, the full-PHY observation models as well.
  std::vector<double> final_sinrs(
      std::size_t g, ActiveLink& l,
      std::vector<std::vector<phy::StreamRxModel>>* models);
  void finalize(RoundResult& result);

  const World& w_;
  const Scenario& sc_;
  util::Rng& rng_;
  const RoundConfig& cfg_;
  const std::vector<std::uint8_t>* active_ = nullptr;
  // Dedicated stream for kFullPhy payload/noise draws, forked from rng_ at
  // round start in BOTH fidelity modes: the protocol path consumes rng_
  // identically whichever mode runs, so a (world, scenario, seed) triple
  // yields the same winners/rates/airtimes at either fidelity.
  util::Rng phy_rng_{0, 0};

  // Fault bookkeeping (cfg_.faults only). A "blind" transmitter missed the
  // overheard headers but joined anyway (header_fallback_defer off): it
  // knows no ongoing-receiver constraints, so its precoder nulls nothing.
  bool blind(std::size_t tx) const {
    return std::find(blind_txs_.begin(), blind_txs_.end(), tx) !=
           blind_txs_.end();
  }
  std::vector<std::size_t> blind_txs_;
  std::size_t degen_count_ = 0;

  std::vector<ActiveGroup> groups_;
  std::size_t used_dof_ = 0;
  double primary_overhead_s_ = 0.0;   // primary contention + first handshake
  double joiner_offset_s_ = 0.0;      // accumulated joiner delay (see above)
};

const std::vector<CMat>& RoundBuilder::eff_true(std::size_t g,
                                                std::size_t node) {
  ActiveGroup& grp = groups_[g];
  std::vector<CMat>& eff = grp.at_node[node].truth;
  if (eff.empty()) {
    eff.resize(kSc);
    for (std::size_t s = 0; s < kSc; ++s) {
      effective_into(w_.channel(grp.tx_node, node, s), grp.v[s],
                     grp.stream_amp, eff[s]);
    }
  }
  return eff;
}

const std::vector<CMat>& RoundBuilder::eff_est(std::size_t g,
                                               std::size_t node) {
  std::vector<CMat>& est = groups_[g].at_node[node].est;
  if (est.empty()) {
    const std::vector<CMat>& truth = eff_true(g, node);
    est.resize(kSc);
    for (std::size_t s = 0; s < kSc; ++s) est[s] = w_.estimate(truth[s]);
  }
  return est;
}

bool RoundBuilder::admission_ok(std::size_t tx,
                                double* power_backoff_db) const {
  *power_backoff_db = 0.0;
  if (groups_.empty()) return true;
  std::vector<double> interference_snr_db;
  double own_snr_db = -300.0;
  for (const auto& g : groups_) {
    for (const auto& l : g.links) {
      interference_snr_db.push_back(w_.link_snr_db(tx, l.rx_node));
    }
  }
  for (std::size_t li : active_links_of(tx)) {
    own_snr_db = std::max(own_snr_db,
                          w_.link_snr_db(tx, sc_.links[li].rx_node));
  }
  const nulling::AdmissionDecision d = nulling::decide_join(
      interference_snr_db, own_snr_db, cfg_.admission);
  *power_backoff_db = d.power_backoff_db;
  return d.join;
}

bool RoundBuilder::try_join(std::size_t tx) {
  const std::size_t m_ant = w_.antennas(tx);
  if (m_ant <= used_dof_) return false;

  // Links whose receiver can still decode in the presence of the existing
  // DoF. Neither they, the admission verdict nor the ongoing constraints
  // depend on the stream target, so the retries below share them.
  std::vector<std::size_t> links;
  for (std::size_t li : active_links_of(tx)) {
    if (w_.antennas(sc_.links[li].rx_node) > used_dof_) links.push_back(li);
  }
  if (links.empty()) return false;

  // Admission / power control (§4).
  double backoff_db = 0.0;
  if (!admission_ok(tx, &backoff_db)) return false;
  const double power_scale = util::from_db(backoff_db);

  // Ongoing constraints from every active receiver, per subcarrier. A
  // blind joiner (missed headers, fallback off) never learned the ongoing
  // receivers' unwanted spaces: its constraint list stays empty and its
  // precoder sprays uncontrolled interference — finalize() prices the
  // collision into everyone's final SINR. Belief reads draw only from
  // per-pair streams, so building this before any estimate is draw-safe.
  OngoingLists ongoing(kSc);
  if (!blind(tx)) {
    std::size_t n_ongoing = 0;
    for (const auto& g : groups_) n_ongoing += g.links.size();
    for (std::size_t s = 0; s < kSc; ++s) {
      ongoing[s].reserve(n_ongoing);
      for (const auto& g : groups_) {
        for (const auto& l : g.links) {
          ongoing[s].push_back(nulling::OngoingReceiver{
              w_.reciprocal_channel(tx, l.rx_node, s), l.receive_rows[s]});
        }
      }
    }
  }

  // A joiner whose maximum stream count (Claim 3.2) cannot sustain a rate
  // retries with fewer, higher-powered streams before giving up — using a
  // degree of freedom it cannot fill would waste it for everyone.
  for (std::size_t m_target = m_ant - used_dof_; m_target >= 1; --m_target) {
    if (try_join_with(tx, m_target, links, power_scale, ongoing)) {
      return true;
    }
  }
  return false;
}

void RoundBuilder::rollback_group(std::size_t g_idx) {
  assert(g_idx + 1 == groups_.size());
  used_dof_ -= groups_[g_idx].m;
  groups_.pop_back();
}

bool RoundBuilder::try_join_with(std::size_t tx, std::size_t m_target,
                                 const std::vector<std::size_t>& link_ids,
                                 double power_scale,
                                 const OngoingLists& ongoing) {
  const std::size_t m_ant = w_.antennas(tx);

  // Allocate streams across this transmitter's links, capped by each
  // receiver's ability to decode in the presence of the existing DoF.
  std::vector<ActiveLink> links(link_ids.size());
  for (std::size_t i = 0; i < link_ids.size(); ++i) {
    links[i].link_idx = link_ids[i];
    links[i].rx_node = sc_.links[link_ids[i]].rx_node;
  }
  // Round-robin stream allocation.
  std::size_t m = 0;
  bool progress = true;
  while (m < m_target && progress) {
    progress = false;
    for (auto& l : links) {
      if (m >= m_target) break;
      const std::size_t cap = w_.antennas(l.rx_node) - used_dof_;
      if (l.n_streams < cap) {
        ++l.n_streams;
        ++m;
        progress = true;
      }
    }
  }
  links.erase(std::remove_if(links.begin(), links.end(),
                             [](const ActiveLink& l) {
                               return l.n_streams == 0;
                             }),
              links.end());
  if (m == 0 || links.empty()) return false;

  // Assign global stream columns per link.
  std::size_t next_col = 0;
  for (auto& l : links) {
    for (std::size_t i = 0; i < l.n_streams; ++i) {
      l.cols.push_back(next_col++);
    }
  }

  // --- Precoder (§3.3) --------------------------------------------------
  ActiveGroup grp;
  grp.tx_node = tx;
  grp.m = m;
  grp.stream_amp = std::sqrt(power_scale / static_cast<double>(m));
  grp.at_node.resize(w_.n_nodes());

  // RTS-stage precoder: a null-space basis of the ongoing constraints. For
  // a single intended receiver this is also the final precoder.
  std::vector<CMat> v_rts(kSc);
  {
    const auto pres = nulling::compute_join_precoders_batch(m_ant, ongoing, m);
    for (std::size_t s = 0; s < kSc; ++s) {
      if (!pres[s].has_value()) return false;  // degenerate channels
      v_rts[s] = pres[s]->v;
    }
  }

  // Receivers estimate the effective RTS channels and advertise their
  // unwanted spaces in their CTSs. A multi-receiver RTS lists which stream
  // goes to whom, so each receiver splits the RTS columns into its own
  // (wanted) streams and sibling streams destined to other receivers —
  // the latter will be routed away by the Eq. 7 precoder, so they count as
  // interference, not as wanted directions, when choosing the space.
  // Draw order: each subcarrier's RTS estimate precedes the first estimate
  // of an ongoing group at this receiver (eff_est), as it always has.
  for (auto& l : links) {
    const std::size_t n_rx = w_.antennas(l.rx_node);
    l.receive_space.resize(kSc);
    l.receive_rows.resize(kSc);
    std::vector<CMat> g_rts(kSc);
    CMat g_own(n_rx, l.n_streams);
    CMat f_est(n_rx, used_dof_);
    for (std::size_t s = 0; s < kSc; ++s) {
      effective_into(w_.channel(tx, l.rx_node, s), v_rts[s], grp.stream_amp,
                     g_rts[s]);
      const CMat g_rts_est = w_.estimate(g_rts[s]);
      put_cols(g_rts_est, l.cols, g_own, 0);
      std::size_t at = 0;
      for (std::size_t g = 0; g < groups_.size(); ++g) {
        at = put_all_cols(eff_est(g, l.rx_node)[s], f_est, at);
      }
      l.receive_space[s] = linalg::orthogonal_complement(
          advertised_unwanted_space(g_own, f_est, l.n_streams));
      l.receive_rows[s] = l.receive_space[s].hermitian();
    }
    // A single receiver's RTS precoder is the group's: its RTS channels
    // are the group's effective channels there.
    if (links.size() == 1) grp.at_node[l.rx_node].truth = std::move(g_rts);
  }

  if (links.size() == 1) {
    grp.v = std::move(v_rts);
  } else {
    // Multi-receiver transmission: Eq. 7 with own-receiver routing rows.
    grp.v.resize(kSc);
    std::vector<nulling::OwnReceiver> own(links.size());
    for (std::size_t i = 0; i < links.size(); ++i) {
      own[i].stream_ids = links[i].cols;
    }
    for (std::size_t s = 0; s < kSc; ++s) {
      for (std::size_t i = 0; i < links.size(); ++i) {
        own[i].channel = w_.reciprocal_channel(tx, links[i].rx_node, s);
        own[i].wanted_space = links[i].receive_rows[s];
      }
      const auto pre =
          nulling::compute_multi_rx_precoder(m_ant, ongoing[s], own);
      if (!pre.has_value()) return false;
      grp.v[s] = pre->v;
    }
  }

  grp.links = std::move(links);
  groups_.push_back(std::move(grp));
  const std::size_t g_idx = groups_.size() - 1;
  used_dof_ += m;

  // --- Rate selection at join time (§3.4) -------------------------------
  for (auto& l : groups_[g_idx].links) {
    const std::vector<const std::vector<CMat>*> truths = truths_at(l.rx_node);
    RxObservation obs;
    l.g_est.resize(kSc);
    l.solve.resize(kSc);
    std::vector<double>& sinrs = l.join_sinrs;
    sinrs.reserve(kSc * l.n_streams);
    for (std::size_t s = 0; s < kSc; ++s) {
      observe(g_idx, l, s, truths, obs);
      l.g_est[s] = w_.estimate(obs.g_true);
      obs.g_est = l.g_est[s];
      obs.solve = &l.solve[s];
      const std::vector<double> sinr = zf_stream_sinr(obs);
      sinrs.insert(sinrs.end(), sinr.begin(), sinr.end());
    }
    // Rate selection reads a sanitized copy; join_sinrs stays raw.
    std::vector<double> picked = sinrs;
    // Injected degenerate CSI: this link's measurement came back as
    // garbage this round. Poison its SINRs so the sanitizer clamps them
    // and rate selection finds nothing — the link defers instead of
    // transmitting with a nonsense projection.
    if (cfg_.faults != nullptr &&
        cfg_.faults->channel_degenerate(l.link_idx)) {
      for (double& s : picked) s = std::numeric_limits<double>::quiet_NaN();
    }
    degen_count_ += sanitize_sinrs(picked);
    if (cfg_.rate_control != nullptr) {
      // History-driven adaptation: the transmitter uses its AARF state, not
      // the oracle eSNR — it has no way to measure the post-projection SNR
      // it is about to get. The eSNR is still recorded for diagnostics.
      l.mcs = cfg_.rate_control->select(l.link_idx);
      l.esnr_db = util::to_db(std::max(
          phy::effective_snr(picked,
                             phy::mcs_by_index(l.mcs).modulation),
          1e-30));
      continue;
    }
    const Mcs* mcs = phy::select_mcs_esnr(picked, cfg_.rate_margin_db);
    if (mcs != nullptr) {
      l.mcs = mcs->index;
      l.esnr_db = util::to_db(std::max(
          phy::effective_snr(picked, mcs->modulation), 1e-30));
    }
  }

  // Joiners that cannot sustain any rate roll back (try_join then retries
  // with fewer streams). The first winner keeps the medium regardless,
  // faithful to 802.11 — it has no way to know better.
  if (groups_.size() > 1) {
    bool any_rate = false;
    for (const auto& l : groups_[g_idx].links) any_rate |= l.mcs >= 0;
    if (!any_rate) {
      rollback_group(g_idx);
      return false;
    }
  }
  return true;
}

std::vector<const std::vector<CMat>*> RoundBuilder::truths_at(
    std::size_t node) {
  std::vector<const std::vector<CMat>*> truths(groups_.size());
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    truths[g] = &eff_true(g, node);
  }
  return truths;
}

void RoundBuilder::observe(std::size_t g, const ActiveLink& l, std::size_t s,
                           const std::vector<const std::vector<CMat>*>& truths,
                           RxObservation& obs) const {
  const std::size_t n_rx = w_.antennas(l.rx_node);
  obs.g_true.resize(n_rx, l.n_streams);
  obs.interference_true.resize(n_rx, used_dof_ - l.n_streams);
  const CMat& own = (*truths[g])[s];
  put_cols(own, l.cols, obs.g_true, 0);
  std::size_t at = 0;
  for (std::size_t og = 0; og < truths.size(); ++og) {
    if (og != g) {
      at = put_all_cols((*truths[og])[s], obs.interference_true, at);
      continue;
    }
    for (const auto& other : groups_[g].links) {
      if (other.link_idx == l.link_idx) continue;
      at = put_cols(own, other.cols, obs.interference_true, at);
    }
  }
  obs.receive_space = l.receive_space[s];
  obs.noise_power = w_.noise_power();
}

std::vector<double> RoundBuilder::final_sinrs(
    std::size_t g, ActiveLink& l,
    std::vector<std::vector<phy::StreamRxModel>>* models) {
  // The last admitted group joined with every other group already on the
  // air: observe() gave it the final observation then, column for column.
  if (models == nullptr && g + 1 == groups_.size()) {
    return std::move(l.join_sinrs);
  }
  const std::vector<const std::vector<CMat>*> truths = truths_at(l.rx_node);
  RxObservation obs;
  std::vector<double> sinrs;
  sinrs.reserve(kSc * l.n_streams);
  for (std::size_t s = 0; s < kSc; ++s) {
    observe(g, l, s, truths, obs);
    obs.g_est = l.g_est[s];
    obs.solve = &l.solve[s];
    if (models == nullptr) {
      const std::vector<double> sinr = zf_stream_sinr(obs);
      sinrs.insert(sinrs.end(), sinr.begin(), sinr.end());
    } else {
      std::vector<phy::StreamRxModel> sm = zf_stream_rx_models(obs);
      for (std::size_t j = 0; j < sm.size(); ++j) {
        sinrs.push_back(sm[j].sinr);
        (*models)[j].push_back(std::move(sm[j]));
      }
    }
  }
  return sinrs;
}

void RoundBuilder::finalize(RoundResult& result) {
  result.links.assign(sc_.links.size(), LinkOutcome{});
  result.total_streams = used_dof_;

  // Body length follows the first contention winner (§3.1): joiners
  // fragment/aggregate to end together.
  std::size_t n_sym_body = 0;
  if (!groups_.empty()) {
    for (const auto& l : groups_[0].links) {
      // A first winner whose link supports no rate sends no body; the round
      // collapses to its (wasted) handshake.
      if (l.mcs < 0) continue;
      n_sym_body = std::max(
          n_sym_body,
          phy::n_data_symbols(phy::mcs_by_index(l.mcs), cfg_.packet_bytes,
                              l.n_streams));
    }
  }

  const double symbol_s = cfg_.airtime.ofdm.symbol_duration_s();
  if (cfg_.include_overheads) {
    result.duration_s = primary_overhead_s_ +
                        static_cast<double>(n_sym_body) * symbol_s +
                        cfg_.airtime.timing.sifs_s +
                        mac::nplus_ack_s(cfg_.airtime);
  } else {
    // Paper accounting: data phase only.
    result.duration_s = static_cast<double>(n_sym_body) * symbol_s;
  }

  // Final SINR with every joiner on the air; residual nulling/alignment
  // error from later joiners degrades earlier receivers here.
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    for (auto& l : groups_[g].links) {
      LinkOutcome& out = result.links[l.link_idx];
      out.streams = l.n_streams;
      out.mcs_index = l.mcs;
      out.esnr_db = l.esnr_db;
      if (l.mcs < 0) continue;
      const Mcs& mcs = phy::mcs_by_index(l.mcs);

      // Per-stream symbol observation models, kept only for full-PHY
      // scoring (kSc entries per stream once final_sinrs returns).
      std::vector<std::vector<phy::StreamRxModel>> stream_models(
          cfg_.fidelity == Fidelity::kFullPhy ? l.n_streams : 0);
      for (auto& v : stream_models) v.reserve(kSc);
      std::vector<double> sinrs = final_sinrs(
          g, l, stream_models.empty() ? nullptr : &stream_models);
      std::vector<std::vector<double>> stream_sinr(l.n_streams);
      for (std::size_t j = 0; j < l.n_streams; ++j) {
        stream_sinr[j].reserve(kSc);
        for (std::size_t s = 0; s < kSc; ++s) {
          stream_sinr[j].push_back(sinrs[s * l.n_streams + j]);
        }
      }
      // Near-singular evolved channels can make the final ZF math blow up
      // even when rate selection looked sane; clamp (and count) before any
      // eSNR/PER consumer sees it. A non-finite full-PHY model resets to
      // the zero-gain "undecodable stream" form the scorer already handles.
      degen_count_ += sanitize_sinrs(sinrs);
      for (auto& sv : stream_sinr) sanitize_sinrs(sv);
      for (auto& mv : stream_models) {
        for (phy::StreamRxModel& m : mv) {
          if (!std::isfinite(m.sinr) || !std::isfinite(m.noise_var) ||
              !std::isfinite(std::norm(m.gain))) {
            m = phy::StreamRxModel{};
          }
        }
      }
      out.final_esnr_db = util::to_db(std::max(
          phy::effective_snr(sinrs, mcs.modulation), 1e-30));

      // Joiners start their bodies late (secondary contention + handshake
      // ran during the ongoing transmission) but must end with the first
      // winner, so they deliver fewer symbols. In paper accounting all
      // handshakes precede the bodies, which then run fully concurrent.
      const double lost_syms =
          cfg_.include_overheads
              ? groups_[g].body_start_offset_s / symbol_s
              : 0.0;
      const double usable_syms = std::max(
          0.0, static_cast<double>(n_sym_body) - lost_syms);
      const double stream_bits =
          usable_syms * static_cast<double>(mcs.n_dbps);
      out.offered_bits = stream_bits * static_cast<double>(l.n_streams);
      if (stream_bits <= 0.0) {
        out.per = 0.0;  // nothing sent, nothing lost
        out.delivered_bits = 0.0;
        out.offered_bits = 0.0;
        continue;
      }

      // Streams carry independent codewords (§3.1: joiners fragment/
      // aggregate per stream), so delivery is scored per stream from that
      // stream's own post-equalization subcarrier SINRs.
      double delivered = 0.0;
      double per_acc = 0.0;
      if (cfg_.fidelity == Fidelity::kAbstracted) {
        const phy::LinkAbstraction& table =
            cfg_.link_abstraction != nullptr
                ? *cfg_.link_abstraction
                : phy::LinkAbstraction::calibrated();
        const auto stream_bytes =
            static_cast<std::size_t>(stream_bits / 8.0);
        for (std::size_t j = 0; j < l.n_streams; ++j) {
          const double esnr_j = util::to_db(std::max(
              phy::effective_snr(stream_sinr[j], mcs.modulation), 1e-30));
          const double p = table.per(mcs, esnr_j, stream_bytes);
          per_acc += p;
          delivered += stream_bits * (1.0 - p);
        }
      } else {
        const auto n_sym = static_cast<std::size_t>(
            std::llround(std::max(1.0, usable_syms)));
        const std::size_t payload_bytes =
            phy::payload_bytes_for_symbols(n_sym, mcs);
        for (std::size_t j = 0; j < l.n_streams; ++j) {
          const bool ok = phy::simulate_stream_delivery_mimo(
              payload_bytes, mcs, stream_models[j], phy_rng_);
          per_acc += ok ? 0.0 : 1.0;
          delivered += ok ? stream_bits : 0.0;
        }
      }
      out.per = per_acc / static_cast<double>(l.n_streams);
      out.delivered_bits = delivered;
    }
  }
  result.degenerate_esnr = degen_count_;
}

RoundResult RoundBuilder::run() {
  RoundResult result;
  phy_rng_ = rng_.fork(0xF1DE11);

  // Candidate transmitters in contention (churned-out links don't show up).
  std::vector<std::size_t> pending = active_transmitters();
  if (!cfg_.dcf_contention) rng_.shuffle(pending);

  while (!pending.empty()) {
    // Who can still add a stream?
    std::vector<std::size_t> eligible;
    for (std::size_t tx : pending) {
      if (w_.antennas(tx) > used_dof_) eligible.push_back(tx);
    }
    if (eligible.empty()) break;

    std::size_t tx;
    double contention_s;
    if (cfg_.dcf_contention) {
      mac::ContentionOutcome outcome;
      if (cfg_.faults != nullptr && cfg_.faults->cw_escalated()) {
        // Failure-aware MAC: transmitters mid-retry-chain contend with
        // their escalated (binary-exponential) windows, everyone else
        // with cw_min.
        std::vector<int> cw0;
        cw0.reserve(eligible.size());
        for (std::size_t e : eligible) {
          cw0.push_back(cfg_.faults->cw_for_tx(e));
        }
        outcome = mac::contend(cw0, rng_, cfg_.airtime.timing);
      } else {
        outcome = mac::contend(eligible.size(), rng_, cfg_.airtime.timing);
      }
      contention_s = outcome.elapsed_s;
      tx = eligible[outcome.winner];
    } else {
      // Random-winner methodology (§6.3): uniform pick, average backoff
      // charged.
      tx = eligible[rng_.uniform_int(
          static_cast<std::uint32_t>(eligible.size()))];
      contention_s = cfg_.airtime.timing.difs_s +
                     rng_.uniform_int(0, 15) * cfg_.airtime.timing.slot_s;
    }
    pending.erase(std::find(pending.begin(), pending.end(), tx));

    const bool is_first = groups_.empty();
    const std::size_t streams_before = used_dof_;
    if (try_join(tx)) {
      result.winner_order.push_back(tx);
      const double handshake_s =
          mac::nplus_handshake_s(cfg_.airtime, used_dof_ - streams_before);
      if (is_first) {
        // Primary contention and the first handshake precede the body.
        primary_overhead_s_ = contention_s + handshake_s;
        // Control-plane loss: each would-be joiner must decode the ongoing
        // transmission's data/ACK headers to learn the occupied subspace
        // (§3.3-3.5). One Bernoulli per candidate, in contention-population
        // order (deterministic). Misses either defer for the round
        // (graceful fallback: stock-802.11 behavior) or go on the blind
        // list and join without nulling constraints.
        if (cfg_.faults != nullptr) {
          std::vector<std::size_t> kept;
          kept.reserve(pending.size());
          for (std::size_t cand : pending) {
            if (cfg_.faults->joiner_overhears(cand)) {
              kept.push_back(cand);
            } else if (!cfg_.faults->defer_on_header_loss()) {
              blind_txs_.push_back(cand);
              kept.push_back(cand);
            }
          }
          pending = std::move(kept);
        }
      } else {
        // Joiners contend and handshake while the medium is already busy:
        // they only delay their own body start.
        joiner_offset_s_ += contention_s + handshake_s;
        groups_.back().body_start_offset_s = joiner_offset_s_;
      }
    } else if (is_first) {
      // A failed first attempt still burned primary contention time.
      primary_overhead_s_ += contention_s;
    }
  }

  finalize(result);
  return result;
}

}  // namespace

RoundResult run_nplus_round(const World& world, const Scenario& scenario,
                            util::Rng& rng, const RoundConfig& config,
                            const std::vector<std::uint8_t>* active_links) {
  return RoundBuilder(world, scenario, rng, config, active_links).run();
}

IsolatedTxResult evaluate_isolated_tx(const World& world,
                                      const IsolatedTxSpec& spec,
                                      util::Rng& rng,
                                      const RoundConfig& config) {
  // As in RoundBuilder: the PHY stream is forked in both fidelity modes so
  // the caller's stream advances identically whichever mode runs.
  util::Rng phy_rng = rng.fork(0xF1DE11);
  IsolatedTxResult result;
  result.outcomes.assign(spec.dests.size(), LinkOutcome{});

  const std::size_t m_ant = world.antennas(spec.tx_node);
  std::size_t m = 0;
  for (const auto& d : spec.dests) m += d.n_streams;
  assert(m <= m_ant);

  // Precoder.
  std::vector<CMat> v(kSc);
  std::vector<std::vector<std::size_t>> cols(spec.dests.size());
  {
    std::size_t next = 0;
    for (std::size_t d = 0; d < spec.dests.size(); ++d) {
      for (std::size_t i = 0; i < spec.dests[d].n_streams; ++i) {
        cols[d].push_back(next++);
      }
    }
  }
  if (!spec.mu_beamforming) {
    assert(spec.dests.size() == 1);
    CMat direct(m_ant, m);
    for (std::size_t i = 0; i < m; ++i) direct(i, i) = cdouble{1.0, 0.0};
    for (std::size_t s = 0; s < kSc; ++s) v[s] = direct;
  } else {
    for (std::size_t s = 0; s < kSc; ++s) {
      std::vector<nulling::OwnReceiver> own;
      for (std::size_t d = 0; d < spec.dests.size(); ++d) {
        const CMat h_belief =
            world.reciprocal_channel(spec.tx_node, spec.dests[d].rx_node, s);
        // Wanted rows: dominant receive directions of the believed channel.
        const linalg::Svd dec = linalg::svd(h_belief);
        const CMat rows =
            dec.u.block(0, dec.u.rows(), 0, spec.dests[d].n_streams)
                .hermitian();
        own.push_back(nulling::OwnReceiver{h_belief, rows, cols[d]});
      }
      const auto pre = nulling::compute_multi_rx_precoder(m_ant, {}, own);
      if (!pre.has_value()) return result;  // degenerate; delivers nothing
      v[s] = pre->v;
    }
  }

  const double amp = std::sqrt(1.0 / static_cast<double>(m));

  // Per-destination SINR, rate, and delivery.
  std::size_t max_syms = 0;
  for (std::size_t d = 0; d < spec.dests.size(); ++d) {
    const auto& dest = spec.dests[d];
    // Every other destination's columns interfere, in column order.
    std::vector<std::size_t> others;
    for (std::size_t c = 0; c < m; ++c) {
      if (std::find(cols[d].begin(), cols[d].end(), c) == cols[d].end()) {
        others.push_back(c);
      }
    }
    const std::size_t n_rx = world.antennas(dest.rx_node);
    RxObservation obs;
    obs.g_true.resize(n_rx, cols[d].size());
    obs.interference_true.resize(n_rx, others.size());
    obs.noise_power = world.noise_power();
    std::vector<double> sinrs;
    std::vector<std::vector<double>> stream_sinr(dest.n_streams);
    for (auto& sv : stream_sinr) sv.reserve(kSc);
    std::vector<std::vector<phy::StreamRxModel>> stream_models(
        config.fidelity == Fidelity::kFullPhy ? dest.n_streams : 0);
    for (auto& sv : stream_models) sv.reserve(kSc);
    for (std::size_t s = 0; s < kSc; ++s) {
      const CMat eff = cdouble{amp, 0.0} *
                       (world.channel(spec.tx_node, dest.rx_node, s) * v[s]);
      put_cols(eff, cols[d], obs.g_true, 0);
      put_cols(eff, others, obs.interference_true, 0);
      obs.g_est = world.estimate(obs.g_true);
      if (!others.empty()) {
        obs.receive_space = linalg::orthogonal_complement(
            advertised_unwanted_space(
                obs.g_est, world.estimate(obs.interference_true),
                dest.n_streams));
      } else {
        obs.receive_space = CMat::identity(n_rx);  // nothing to reject
      }
      if (stream_models.empty()) {
        const std::vector<double> sinr = zf_stream_sinr(obs);
        for (std::size_t j = 0; j < sinr.size() && j < dest.n_streams;
             ++j) {
          sinrs.push_back(sinr[j]);
          stream_sinr[j].push_back(sinr[j]);
        }
      } else {
        std::vector<phy::StreamRxModel> models = zf_stream_rx_models(obs);
        for (std::size_t j = 0; j < models.size() && j < dest.n_streams;
             ++j) {
          sinrs.push_back(models[j].sinr);
          stream_sinr[j].push_back(models[j].sinr);
          stream_models[j].push_back(std::move(models[j]));
        }
      }
    }
    result.degenerate_esnr += sanitize_sinrs(sinrs);
    for (auto& sv : stream_sinr) sanitize_sinrs(sv);
    for (auto& mv : stream_models) {
      for (phy::StreamRxModel& model : mv) {
        if (!std::isfinite(model.sinr) || !std::isfinite(model.noise_var) ||
            !std::isfinite(std::norm(model.gain))) {
          model = phy::StreamRxModel{};
        }
      }
    }
    LinkOutcome& out = result.outcomes[d];
    out.streams = dest.n_streams;
    const Mcs* mcs = phy::select_mcs_esnr(sinrs, config.rate_margin_db);
    if (mcs == nullptr) continue;
    out.mcs_index = mcs->index;
    out.offered_bits = static_cast<double>(8 * config.packet_bytes);
    out.esnr_db = util::to_db(
        std::max(phy::effective_snr(sinrs, mcs->modulation), 1e-30));
    out.final_esnr_db = out.esnr_db;
    const std::size_t bytes = config.packet_bytes;
    const std::size_t n_syms =
        phy::n_data_symbols(*mcs, bytes, dest.n_streams);

    // One packet striped across the destination's streams: every stream's
    // share must decode, so link PER = 1 - prod_j (1 - PER_j).
    if (config.fidelity == Fidelity::kAbstracted) {
      const phy::LinkAbstraction& table =
          config.link_abstraction != nullptr
              ? *config.link_abstraction
              : phy::LinkAbstraction::calibrated();
      const std::size_t stream_bytes =
          std::max<std::size_t>(bytes / dest.n_streams, 1);
      double p_all = 1.0;
      for (std::size_t j = 0; j < dest.n_streams; ++j) {
        const double esnr_j = util::to_db(std::max(
            phy::effective_snr(stream_sinr[j], mcs->modulation), 1e-30));
        p_all *= 1.0 - table.per(*mcs, esnr_j, stream_bytes);
      }
      out.per = 1.0 - p_all;
      out.delivered_bits = static_cast<double>(8 * bytes) * p_all;
    } else {
      const std::size_t payload_bytes =
          phy::payload_bytes_for_symbols(n_syms, *mcs);
      bool ok = true;
      for (std::size_t j = 0; j < dest.n_streams; ++j) {
        ok = phy::simulate_stream_delivery_mimo(payload_bytes, *mcs,
                                                stream_models[j], phy_rng) &&
             ok;
      }
      out.per = ok ? 0.0 : 1.0;
      out.delivered_bits = ok ? static_cast<double>(8 * bytes) : 0.0;
    }
    max_syms = std::max(max_syms, n_syms);
  }

  // Airtime: preamble + header + body + SIFS + ACK (base rate); body only
  // under paper accounting.
  const double symbol_s = config.airtime.ofdm.symbol_duration_s();
  if (config.include_overheads) {
    result.airtime_s =
        mac::preamble_s(config.airtime, std::max<std::size_t>(m, 1)) +
        static_cast<double>(config.airtime.header_symbols) * symbol_s +
        static_cast<double>(max_syms) * symbol_s +
        config.airtime.timing.sifs_s + mac::nplus_ack_s(config.airtime);
  } else {
    result.airtime_s = static_cast<double>(max_syms) * symbol_s;
  }
  return result;
}

}  // namespace nplus::sim
