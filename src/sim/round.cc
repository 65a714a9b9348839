#include "sim/round.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>

#include "linalg/decomp.h"
#include "linalg/simd/batch.h"
#include "linalg/simd/kernels.h"
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

// Batched per-subcarrier effective channel: eff[s] = amp * (H_s * V_s) for
// every subcarrier at once through the SIMD matmul + scale kernels. Per
// lane the kernels run the exact op sequence of the scalar
// `amp * (w.channel(a, b, s) * v[s])`, so the unpacked matrices are
// byte-identical to the per-subcarrier scalar products (the two fidelity
// modes share this path through eff_true and the RTS-channel loop).
std::vector<CMat> batched_effective(const World& w, std::size_t tx,
                                    std::size_t node,
                                    const std::vector<CMat>& v,
                                    cdouble amp) {
  assert(v.size() == kSc);
  const CMat& h0 = w.channel(tx, node, 0);
  linalg::simd::CBatch hb(h0.rows(), h0.cols(), kSc);
  linalg::simd::CBatch vb(v[0].rows(), v[0].cols(), kSc);
  linalg::simd::CBatch ob;
  for (std::size_t s = 0; s < kSc; ++s) {
    hb.set_lane(s, w.channel(tx, node, s));
    vb.set_lane(s, v[s]);
  }
  linalg::simd::matmul(hb, vb, ob);
  linalg::simd::scale(ob, amp);
  std::vector<CMat> eff(kSc);
  for (std::size_t s = 0; s < kSc; ++s) ob.get_lane(s, eff[s]);
  return eff;
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
  std::size_t link_idx = 0;
  std::size_t rx_node = 0;
  std::size_t n_streams = 0;
  std::vector<std::size_t> cols;       // columns of the group precoder
  int mcs = -1;
  double esnr_db = -100.0;
  std::vector<CMat> advertised_u;      // per subcarrier, N x (N-n)
  std::vector<CMat> g_est;             // receiver's data-preamble estimate
};

struct ActiveGroup {
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
};

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
    if (active_ == nullptr) return out;  // static path: no filtering work
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

  // Interference estimate at `node`: stacked eff_est of groups != `except`.
  CMat stacked_est_interference(std::size_t node, std::size_t s,
                                std::size_t except);

  bool admission_ok(std::size_t tx, double* power_backoff_db) const;
  bool try_join(std::size_t tx);
  // One attempt at joining with at most `m_target` streams; rolls itself
  // back and returns false if no link of the group can sustain any rate.
  bool try_join_with(std::size_t tx, std::size_t m_target);
  void rollback_group(std::size_t g_idx);

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

  std::map<std::pair<std::size_t, std::size_t>, std::vector<CMat>>
      eff_true_cache_;
  std::map<std::pair<std::size_t, std::size_t>, std::vector<CMat>>
      eff_est_cache_;
};

const std::vector<CMat>& RoundBuilder::eff_true(std::size_t g,
                                                std::size_t node) {
  const auto key = std::make_pair(g, node);
  auto it = eff_true_cache_.find(key);
  if (it != eff_true_cache_.end()) return it->second;

  const ActiveGroup& grp = groups_[g];
  std::vector<CMat> eff = batched_effective(w_, grp.tx_node, node, grp.v,
                                            cdouble{grp.stream_amp, 0.0});
  return eff_true_cache_.emplace(key, std::move(eff)).first->second;
}

const std::vector<CMat>& RoundBuilder::eff_est(std::size_t g,
                                               std::size_t node) {
  const auto key = std::make_pair(g, node);
  auto it = eff_est_cache_.find(key);
  if (it != eff_est_cache_.end()) return it->second;

  const std::vector<CMat>& truth = eff_true(g, node);
  std::vector<CMat> est(kSc);
  for (std::size_t s = 0; s < kSc; ++s) est[s] = w_.estimate(truth[s]);
  return eff_est_cache_.emplace(key, std::move(est)).first->second;
}

CMat RoundBuilder::stacked_est_interference(std::size_t node, std::size_t s,
                                            std::size_t except) {
  CMat out(w_.antennas(node), 0);
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    if (g == except) continue;
    out = out.hstack(eff_est(g, node)[s]);
  }
  return out;
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
  // A joiner whose maximum stream count (Claim 3.2) cannot sustain a rate
  // retries with fewer, higher-powered streams before giving up — using a
  // degree of freedom it cannot fill would waste it for everyone.
  for (std::size_t m_target = m_ant - used_dof_; m_target >= 1; --m_target) {
    if (try_join_with(tx, m_target)) return true;
  }
  return false;
}

void RoundBuilder::rollback_group(std::size_t g_idx) {
  used_dof_ -= groups_[g_idx].m;
  groups_.pop_back();
  for (auto it = eff_true_cache_.begin(); it != eff_true_cache_.end();) {
    it = it->first.first == g_idx ? eff_true_cache_.erase(it) : ++it;
  }
  for (auto it = eff_est_cache_.begin(); it != eff_est_cache_.end();) {
    it = it->first.first == g_idx ? eff_est_cache_.erase(it) : ++it;
  }
}

bool RoundBuilder::try_join_with(std::size_t tx, std::size_t m_target) {
  const std::size_t m_ant = w_.antennas(tx);
  const std::size_t m_avail = m_target;

  // Allocate streams across this transmitter's links, capped by each
  // receiver's ability to decode in the presence of the existing DoF.
  std::vector<ActiveLink> links;
  for (std::size_t li : active_links_of(tx)) {
    const std::size_t n_rx = w_.antennas(sc_.links[li].rx_node);
    if (n_rx <= used_dof_) continue;
    ActiveLink l;
    l.link_idx = li;
    l.rx_node = sc_.links[li].rx_node;
    l.n_streams = 0;
    links.push_back(l);
  }
  if (links.empty()) return false;
  // Round-robin stream allocation.
  std::size_t m = 0;
  bool progress = true;
  while (m < m_avail && progress) {
    progress = false;
    for (auto& l : links) {
      if (m >= m_avail) break;
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

  // Admission / power control (§4).
  double backoff_db = 0.0;
  if (!admission_ok(tx, &backoff_db)) return false;
  const double power_scale = util::from_db(backoff_db);

  // Assign global stream columns per link.
  std::size_t next_col = 0;
  for (auto& l : links) {
    for (std::size_t i = 0; i < l.n_streams; ++i) {
      l.cols.push_back(next_col++);
    }
  }

  // --- Precoder (§3.3) --------------------------------------------------
  // Ongoing constraints from every active receiver, per subcarrier. A
  // blind joiner (missed headers, fallback off) never learned the ongoing
  // receivers' unwanted spaces: its constraint list stays empty and its
  // precoder sprays uncontrolled interference — finalize() prices the
  // collision into everyone's final SINR.
  std::vector<std::vector<nulling::OngoingReceiver>> ongoing(kSc);
  if (!blind(tx)) {
    for (std::size_t s = 0; s < kSc; ++s) {
      for (const auto& g : groups_) {
        for (const auto& l : g.links) {
          const CMat u_perp =
              linalg::orthogonal_complement(l.advertised_u[s]).hermitian();
          ongoing[s].push_back(nulling::OngoingReceiver{
              w_.reciprocal_channel(tx, l.rx_node, s), u_perp});
        }
      }
    }
  }

  ActiveGroup grp;
  grp.tx_node = tx;
  grp.m = m;
  grp.stream_amp = std::sqrt(power_scale / static_cast<double>(m));
  grp.v.resize(kSc);

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
  for (auto& l : links) {
    l.advertised_u.resize(kSc);
    const std::vector<CMat> g_rts_all = batched_effective(
        w_, tx, l.rx_node, v_rts, cdouble{grp.stream_amp, 0.0});
    for (std::size_t s = 0; s < kSc; ++s) {
      const CMat g_rts_est = w_.estimate(g_rts_all[s]);
      CMat g_own(g_rts_est.rows(), 0);
      CMat f_est = stacked_est_interference(l.rx_node, s, SIZE_MAX);
      for (std::size_t c = 0; c < g_rts_est.cols(); ++c) {
        const CMat col = g_rts_est.block(0, g_rts_est.rows(), c, c + 1);
        if (std::find(l.cols.begin(), l.cols.end(), c) != l.cols.end()) {
          g_own = g_own.hstack(col);
        }
      }
      l.advertised_u[s] =
          advertised_unwanted_space(g_own, f_est, l.n_streams);
    }
  }

  if (links.size() == 1) {
    grp.v = std::move(v_rts);
  } else {
    // Multi-receiver transmission: Eq. 7 with own-receiver routing rows.
    for (std::size_t s = 0; s < kSc; ++s) {
      std::vector<nulling::OwnReceiver> own;
      for (const auto& l : links) {
        const CMat u_perp =
            linalg::orthogonal_complement(l.advertised_u[s]).hermitian();
        own.push_back(nulling::OwnReceiver{
            w_.reciprocal_channel(tx, l.rx_node, s), u_perp, l.cols});
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
    const std::vector<CMat>& truth = eff_true(g_idx, l.rx_node);
    l.g_est.resize(kSc);
    std::vector<double> sinrs;
    sinrs.reserve(kSc * l.n_streams);
    for (std::size_t s = 0; s < kSc; ++s) {
      RxObservation obs;
      obs.g_true = CMat(w_.antennas(l.rx_node), 0);
      for (std::size_t c : l.cols) {
        obs.g_true = obs.g_true.hstack(
            truth[s].block(0, truth[s].rows(), c, c + 1));
      }
      obs.g_est = w_.estimate(obs.g_true);
      l.g_est[s] = obs.g_est;
      // Interference: earlier groups + this group's other-link columns.
      CMat f(w_.antennas(l.rx_node), 0);
      for (std::size_t g = 0; g + 1 < groups_.size(); ++g) {
        f = f.hstack(eff_true(g, l.rx_node)[s]);
      }
      for (const auto& other : groups_[g_idx].links) {
        if (other.link_idx == l.link_idx) continue;
        for (std::size_t c : other.cols) {
          f = f.hstack(truth[s].block(0, truth[s].rows(), c, c + 1));
        }
      }
      obs.interference_true = f;
      obs.unwanted_basis = l.advertised_u[s];
      obs.noise_power = w_.noise_power();
      const std::vector<double> sinr = zf_stream_sinr(obs);
      sinrs.insert(sinrs.end(), sinr.begin(), sinr.end());
    }
    // Injected degenerate CSI: this link's measurement came back as
    // garbage this round. Poison its SINRs so the sanitizer clamps them
    // and rate selection finds nothing — the link defers instead of
    // transmitting with a nonsense projection.
    if (cfg_.faults != nullptr &&
        cfg_.faults->channel_degenerate(l.link_idx)) {
      for (double& s : sinrs) s = std::numeric_limits<double>::quiet_NaN();
    }
    degen_count_ += sanitize_sinrs(sinrs);
    if (cfg_.rate_control != nullptr) {
      // History-driven adaptation: the transmitter uses its AARF state, not
      // the oracle eSNR — it has no way to measure the post-projection SNR
      // it is about to get. The eSNR is still recorded for diagnostics.
      l.mcs = cfg_.rate_control->select(l.link_idx);
      l.esnr_db = util::to_db(std::max(
          phy::effective_snr(sinrs,
                             phy::mcs_by_index(l.mcs).modulation),
          1e-30));
      continue;
    }
    const Mcs* mcs = phy::select_mcs_esnr(sinrs, cfg_.rate_margin_db);
    if (mcs != nullptr) {
      l.mcs = mcs->index;
      l.esnr_db = util::to_db(std::max(
          phy::effective_snr(sinrs, mcs->modulation), 1e-30));
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

      const std::vector<CMat>& truth = eff_true(g, l.rx_node);
      std::vector<double> sinrs;
      sinrs.reserve(kSc * l.n_streams);
      std::vector<std::vector<double>> stream_sinr(l.n_streams);
      for (auto& v : stream_sinr) v.reserve(kSc);
      // Per-stream symbol observation models, kept only for full-PHY
      // scoring (kSc entries per stream once the loop finishes).
      std::vector<std::vector<phy::StreamRxModel>> stream_models(
          cfg_.fidelity == Fidelity::kFullPhy ? l.n_streams : 0);
      for (auto& v : stream_models) v.reserve(kSc);
      for (std::size_t s = 0; s < kSc; ++s) {
        RxObservation obs;
        obs.g_true = CMat(w_.antennas(l.rx_node), 0);
        for (std::size_t c : l.cols) {
          obs.g_true = obs.g_true.hstack(
              truth[s].block(0, truth[s].rows(), c, c + 1));
        }
        obs.g_est = l.g_est[s];
        CMat f(w_.antennas(l.rx_node), 0);
        for (std::size_t og = 0; og < groups_.size(); ++og) {
          if (og == g) {
            for (const auto& other : groups_[g].links) {
              if (other.link_idx == l.link_idx) continue;
              for (std::size_t c : other.cols) {
                f = f.hstack(truth[s].block(0, truth[s].rows(), c, c + 1));
              }
            }
          } else {
            f = f.hstack(eff_true(og, l.rx_node)[s]);
          }
        }
        obs.interference_true = f;
        obs.unwanted_basis = l.advertised_u[s];
        obs.noise_power = w_.noise_power();
        if (stream_models.empty()) {
          const std::vector<double> sinr = zf_stream_sinr(obs);
          for (std::size_t j = 0; j < sinr.size() && j < l.n_streams;
               ++j) {
            sinrs.push_back(sinr[j]);
            stream_sinr[j].push_back(sinr[j]);
          }
        } else {
          std::vector<phy::StreamRxModel> models =
              zf_stream_rx_models(obs);
          for (std::size_t j = 0; j < models.size() && j < l.n_streams;
               ++j) {
            sinrs.push_back(models[j].sinr);
            stream_sinr[j].push_back(models[j].sinr);
            stream_models[j].push_back(std::move(models[j]));
          }
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
        const CMat& h_belief =
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
    std::vector<double> sinrs;
    std::vector<std::vector<double>> stream_sinr(dest.n_streams);
    for (auto& sv : stream_sinr) sv.reserve(kSc);
    std::vector<std::vector<phy::StreamRxModel>> stream_models(
        config.fidelity == Fidelity::kFullPhy ? dest.n_streams : 0);
    for (auto& sv : stream_models) sv.reserve(kSc);
    for (std::size_t s = 0; s < kSc; ++s) {
      const CMat eff = cdouble{amp, 0.0} *
                       (world.channel(spec.tx_node, dest.rx_node, s) * v[s]);
      RxObservation obs;
      obs.g_true = CMat(eff.rows(), 0);
      CMat f(eff.rows(), 0);
      for (std::size_t c = 0; c < eff.cols(); ++c) {
        const CMat col = eff.block(0, eff.rows(), c, c + 1);
        if (std::find(cols[d].begin(), cols[d].end(), c) != cols[d].end()) {
          obs.g_true = obs.g_true.hstack(col);
        } else {
          f = f.hstack(col);
        }
      }
      obs.g_est = world.estimate(obs.g_true);
      obs.interference_true = f;
      if (f.cols() > 0) {
        obs.unwanted_basis = advertised_unwanted_space(
            obs.g_est, world.estimate(f), dest.n_streams);
      } else {
        obs.unwanted_basis = CMat(eff.rows(), 0);
      }
      obs.noise_power = world.noise_power();
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
