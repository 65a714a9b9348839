#include "phy/interleaver.h"

#include <algorithm>
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

const std::vector<std::size_t>& deinterleave_map(std::size_t n_cbps,
                                                 std::size_t n_bpsc) {
  // Map nodes never move, so a returned reference stays valid.
  static thread_local std::map<std::pair<std::size_t, std::size_t>,
                               std::vector<std::size_t>>
      maps;
  const auto key = std::make_pair(n_cbps, n_bpsc);
  auto it = maps.find(key);
  if (it == maps.end()) {
    const std::vector<std::size_t> to = interleave_map(n_cbps, n_bpsc);
    std::vector<std::size_t> from(n_cbps);
    for (std::size_t i = 0; i < n_cbps; ++i) from[to[i]] = i;
    it = maps.emplace(key, std::move(from)).first;
  }
  return it->second;
}

}  // namespace nplus::phy
