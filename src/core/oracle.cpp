#include "dsjoin/core/oracle.hpp"

#include <algorithm>
#include <cassert>

namespace dsjoin::core {

ExactJoinOracle::ExactJoinOracle(double half_width)
    : ExactJoinOracle(std::span<const double>(&half_width, 1)) {}

ExactJoinOracle::ExactJoinOracle(std::span<const double> half_widths) {
  assert(!half_widths.empty());
  for (const double width : half_widths) {
    const auto it = std::find(widths_.begin(), widths_.end(), width);
    width_of_.push_back(static_cast<std::size_t>(it - widths_.begin()));
    if (it == widths_.end()) widths_.push_back(width);
    max_width_ = std::max(max_width_, width);
  }
  pairs_.assign(widths_.size(), 0);
}

void ExactJoinOracle::observe(const stream::Tuple& tuple) {
  const auto opposite = static_cast<std::size_t>(stream::opposite(tuple.side));
  const auto side = static_cast<std::size_t>(tuple.side);
  // Arrivals come in timestamp order: every counted partner is earlier, so
  // each unordered pair is counted exactly once (when its later member
  // arrives).
  if (widths_.size() == 1) {
    pairs_[0] += store_[opposite].count_matches(tuple.key, tuple.timestamp,
                                                widths_[0]);
  } else {
    // One scan at the widest half-width; each narrower window is a subset
    // (center - w is monotone in w), counted with the kernel's compares.
    matches_.clear();
    store_[opposite].collect_matches(tuple.key, tuple.timestamp, max_width_,
                                     matches_);
    for (std::size_t w = 0; w < widths_.size(); ++w) {
      const double lo = tuple.timestamp - widths_[w];
      const double hi = tuple.timestamp + widths_[w];
      std::uint64_t n = 0;
      for (const auto& match : matches_) {
        n += match.timestamp >= lo && match.timestamp <= hi;
      }
      pairs_[w] += n;
    }
  }
  store_[side].insert(tuple);
  // Retention to the widest window is exact for every query: a later probe
  // at t' >= t never reaches below t - max_width.
  if (++observed_ % 512 == 0) {
    store_[0].evict_before(tuple.timestamp - max_width_ - 1.0);
    store_[1].evict_before(tuple.timestamp - max_width_ - 1.0);
  }
}

}  // namespace dsjoin::core
