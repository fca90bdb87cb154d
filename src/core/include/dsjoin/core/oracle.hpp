// Exact-join oracle.
//
// Computes |Psi| of Eq. 1: the exact number of (r, s) pairs with equal keys
// and coexisting timestamps, over all tuples of all nodes, by streaming the
// arrivals in global timestamp order. The distributed system's deduplicated
// reports are measured against this total.
//
// One oracle serves every registered query: the arrivals are stored once,
// retained to the widest half-width, and counted once per distinct
// half-width.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "dsjoin/stream/tuple.hpp"
#include "dsjoin/stream/window.hpp"

namespace dsjoin::core {

class ExactJoinOracle {
 public:
  /// @param half_width  join window: |r.ts - s.ts| <= half_width.
  explicit ExactJoinOracle(double half_width);

  /// One count per entry of `half_widths` (index = query index). Queries
  /// of equal half-width share one count.
  explicit ExactJoinOracle(std::span<const double> half_widths);

  /// Feeds one arrival. Calls must be in nondecreasing timestamp order
  /// (the simulation's arrival events provide this for free).
  void observe(const stream::Tuple& tuple);

  /// Exact |Psi| of query `query` over everything observed so far.
  std::uint64_t total_pairs(std::size_t query = 0) const noexcept {
    return pairs_[width_of_[query]];
  }

 private:
  std::vector<double> widths_;           // distinct half-widths
  std::vector<std::size_t> width_of_;    // query -> index into widths_
  std::vector<std::uint64_t> pairs_;     // by distinct width
  double max_width_ = 0.0;
  std::array<stream::TupleStore, 2> store_;  // by side
  std::vector<stream::StoredTuple> matches_;  // widest-probe scratch
  std::uint64_t observed_ = 0;
};

}  // namespace dsjoin::core
