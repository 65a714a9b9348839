#include "phy/interleaver.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <utility>

namespace nplus::phy {

std::vector<std::size_t> interleave_map(std::size_t n_cbps,
                                        std::size_t n_bpsc) {
  // 802.11a-1999 17.3.5.6, with s = max(n_bpsc/2, 1) and 16 columns.
  const std::size_t s = std::max<std::size_t>(n_bpsc / 2, 1);
  std::vector<std::size_t> to(n_cbps);
  for (std::size_t k = 0; k < n_cbps; ++k) {
    // First permutation.
    const std::size_t i = (n_cbps / 16) * (k % 16) + (k / 16);
    // Second permutation.
    const std::size_t j =
        s * (i / s) + (i + n_cbps - (16 * i / n_cbps)) % s;
    to[k] = j;
  }
  return to;
}

namespace {

// interleave_map(n_cbps, n_bpsc), built once per thread and key. Map nodes
// never move, so a returned reference stays valid for the thread's life.
const std::vector<std::size_t>& cached_map(std::size_t n_cbps,
                                           std::size_t n_bpsc) {
  static thread_local std::map<std::pair<std::size_t, std::size_t>,
                               std::vector<std::size_t>>
      maps;
  const auto key = std::make_pair(n_cbps, n_bpsc);
  auto it = maps.find(key);
  if (it == maps.end()) {
    it = maps.emplace(key, interleave_map(n_cbps, n_bpsc)).first;
  }
  return it->second;
}

}  // namespace

Bits interleave(const Bits& in, std::size_t n_cbps, std::size_t n_bpsc) {
  assert(in.size() % n_cbps == 0);
  const auto& map = cached_map(n_cbps, n_bpsc);
  Bits out(in.size());
  for (std::size_t sym = 0; sym < in.size() / n_cbps; ++sym) {
    const std::size_t base = sym * n_cbps;
    for (std::size_t k = 0; k < n_cbps; ++k) out[base + map[k]] = in[base + k];
  }
  return out;
}

Bits deinterleave(const Bits& in, std::size_t n_cbps, std::size_t n_bpsc) {
  assert(in.size() % n_cbps == 0);
  const auto& map = cached_map(n_cbps, n_bpsc);
  Bits out(in.size());
  for (std::size_t sym = 0; sym < in.size() / n_cbps; ++sym) {
    const std::size_t base = sym * n_cbps;
    for (std::size_t k = 0; k < n_cbps; ++k) out[base + k] = in[base + map[k]];
  }
  return out;
}

std::vector<double> deinterleave_soft(const std::vector<double>& in,
                                      std::size_t n_cbps,
                                      std::size_t n_bpsc) {
  assert(in.size() % n_cbps == 0);
  const auto& map = cached_map(n_cbps, n_bpsc);
  std::vector<double> out(in.size());
  for (std::size_t sym = 0; sym < in.size() / n_cbps; ++sym) {
    const std::size_t base = sym * n_cbps;
    for (std::size_t k = 0; k < n_cbps; ++k) out[base + k] = in[base + map[k]];
  }
  return out;
}

}  // namespace nplus::phy
