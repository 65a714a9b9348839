#include "phy/link_abstraction.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "phy/frame.h"

namespace nplus::phy {

namespace {

std::vector<PerCurve> checked_in_curves() {
  // Each entry: {mcs_index, {{esnr_db, per_1500}, ...}}. The file is
  // regenerated by `./calibrate_per --write src/phy/per_table_data.inc`.
  return {
#include "phy/per_table_data.inc"
  };
}

}  // namespace

LinkAbstraction::LinkAbstraction(const std::vector<PerCurve>& curves) {
  for (const PerCurve& c : curves) {
    if (c.mcs_index < 0 ||
        static_cast<std::size_t>(c.mcs_index) >= curves_.size()) {
      continue;
    }
    if (c.points.size() < 2) continue;
    PerCurve sorted = c;
    std::sort(sorted.points.begin(), sorted.points.end(),
              [](const PerPoint& a, const PerPoint& b) {
                return a.esnr_db < b.esnr_db;
              });
    for (PerPoint& p : sorted.points) {
      p.per = std::clamp(p.per, 0.0, 1.0);
    }
    // PER must not increase with eSNR; a violation here means the
    // calibration data was edited by hand (the tool writes isotonic fits).
    for (std::size_t i = 1; i < sorted.points.size(); ++i) {
      assert(sorted.points[i].per <= sorted.points[i - 1].per + 1e-12);
      sorted.points[i].per =
          std::min(sorted.points[i].per, sorted.points[i - 1].per);
    }
    curves_[static_cast<std::size_t>(c.mcs_index)] = std::move(sorted);
  }
}

const LinkAbstraction& LinkAbstraction::calibrated() {
  static const LinkAbstraction table(checked_in_curves());
  return table;
}

bool LinkAbstraction::has_curve(int mcs_index) const {
  return curve(mcs_index) != nullptr;
}

const PerCurve* LinkAbstraction::curve(int mcs_index) const {
  if (mcs_index < 0 ||
      static_cast<std::size_t>(mcs_index) >= curves_.size()) {
    return nullptr;
  }
  const auto& slot = curves_[static_cast<std::size_t>(mcs_index)];
  return slot.has_value() ? &slot.value() : nullptr;
}

double LinkAbstraction::per_1500(const Mcs& mcs, double esnr_db) const {
  // A NaN eSNR compares false against every breakpoint and would fall
  // through lower_bound into an arbitrary interpolation; a non-finite
  // measurement means the packet is lost, not lucky.
  if (!std::isfinite(esnr_db)) return 1.0;
  const PerCurve* c = curve(mcs.index);
  if (c == nullptr) return packet_error_rate(mcs, esnr_db, 1500);
  const auto& pts = c->points;
  if (esnr_db <= pts.front().esnr_db) return pts.front().per;
  if (esnr_db >= pts.back().esnr_db) return pts.back().per;
  const auto it = std::lower_bound(
      pts.begin(), pts.end(), esnr_db,
      [](const PerPoint& p, double x) { return p.esnr_db < x; });
  const PerPoint& hi = *it;
  const PerPoint& lo = *(it - 1);
  const double span = hi.esnr_db - lo.esnr_db;
  const double t = span > 0.0 ? (esnr_db - lo.esnr_db) / span : 0.0;
  return lo.per + t * (hi.per - lo.per);
}

double LinkAbstraction::per(const Mcs& mcs, double esnr_db,
                            std::size_t bytes) const {
  if (!std::isfinite(esnr_db)) return 1.0;  // see per_1500
  if (curve(mcs.index) == nullptr) {
    return packet_error_rate(mcs, esnr_db, bytes);
  }
  const double p1500 = per_1500(mcs, esnr_db);
  const double scale = static_cast<double>(bytes) / 1500.0;
  const double per = 1.0 - std::pow(1.0 - p1500, scale);
  return std::clamp(per, 0.0, 1.0);
}

std::size_t payload_bytes_for_symbols(std::size_t n_symbols, const Mcs& mcs) {
  // encode_payload carries 16 service + 6 tail bits and a 4-byte CRC-32
  // inside the coded symbols (frame.cc padded_data_bits).
  const std::size_t budget_bits = n_symbols * mcs.n_dbps;
  constexpr std::size_t kOverheadBits = 16 + 6 + 8 * 4;
  if (budget_bits < kOverheadBits + 8) return 0;
  return (budget_bits - kOverheadBits) / 8;
}

bool simulate_stream_delivery_mimo(
    std::size_t payload_bytes, const Mcs& mcs,
    const std::vector<StreamRxModel>& sc_models, util::Rng& rng) {
  if (sc_models.empty()) return false;
  // Reused per thread: the payload and the per-symbol noise belief.
  static thread_local std::vector<std::uint8_t> payload;
  static thread_local std::vector<double> noise_var;
  payload.resize(payload_bytes);
  for (auto& b : payload) {
    b = static_cast<std::uint8_t>(rng.uniform_int(256u));
  }
  std::vector<cdouble> symbols = encode_payload(payload, mcs);

  const auto& own_points = constellation_points(mcs.modulation);
  const auto& qpsk_points = constellation_points(Modulation::kQpsk);
  const std::size_t n_sc = sc_models.size();
  noise_var.resize(symbols.size());
  for (std::size_t i = 0; i < symbols.size(); ++i) {
    const StreamRxModel& m = sc_models[i % n_sc];
    if (std::norm(m.gain) <= 0.0) return false;
    cdouble y = m.gain * symbols[i];
    for (const cdouble& g : m.self) {
      y += g * own_points[rng.uniform_int(
               static_cast<std::uint32_t>(own_points.size()))];
    }
    for (const cdouble& g : m.leak) {
      y += g * qpsk_points[rng.uniform_int(4u)];
    }
    y += rng.cgaussian(m.noise_var);
    symbols[i] = y / m.gain;
    noise_var[i] = 1.0 / std::max(m.sinr, 1e-12);
  }
  return decode_payload(symbols, noise_var, payload.size(), mcs).has_value();
}

}  // namespace nplus::phy
