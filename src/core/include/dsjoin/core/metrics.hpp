// Experiment metrics.
//
// MetricsCollector gathers the result pairs the distributed system reports
// (deduplicated globally — a pair may be discovered at both owners), so that
// epsilon (Eq. 1), messages per result tuple and throughput can be computed
// against the exact-join oracle.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsjoin/net/frame.hpp"
#include "dsjoin/stream/tuple.hpp"

namespace dsjoin::core {

/// Global (cross-node) result accounting.
///
/// The dedup set is a flat open-addressing table of 16-byte pairs
/// (power-of-two capacity, linear probing, load <= 1/2). Occupancy lives in
/// a byte array beside the pairs, so every pair value — (0, 0) and
/// (2^64-1, 2^64-1) included — is storable.
///
/// Parallel epochs: the collector is shared by all nodes, so the parallel
/// driver opens an epoch around each worker phase; record_pair from a bound
/// worker thread is buffered per slot and end_epoch() applies the buffers
/// in slot order — the serial dispatch order — keeping the dedup set's
/// first-discoverer attribution bit-identical to a serial run.
class MetricsCollector {
 public:
  /// Records a discovered pair; duplicates (same r_id/s_id) count once.
  void record_pair(const stream::ResultPair& pair, net::NodeId discoverer,
                   double now);

  /// Opens an epoch with `slots` report buffers (one per deferred task).
  void begin_epoch(std::size_t slots);
  /// Binds the calling thread to `slot` for the current epoch — of this
  /// collector and of every collector sharing its epoch group.
  void bind_epoch_slot(std::size_t slot);
  /// Applies all buffered reports in slot order.
  void end_epoch();

  /// Joins an epoch group: collectors sharing a group tag buffer under one
  /// thread binding, so a driver with several collectors (one per query)
  /// opens their epochs together and binds slots through any one of them.
  /// Default group: the collector itself (single-collector drivers change
  /// nothing). Set before the first epoch.
  void set_epoch_group(const void* group) noexcept { epoch_group_ = group; }

  /// Distinct pairs reported by the system — |Psi-hat| of Eq. 1.
  std::uint64_t distinct_pairs() const noexcept { return size_; }

  /// Snapshot of every distinct pair recorded so far, sorted ascending by
  /// (r_id, s_id) — NOT the table's slot order, so the snapshot (and
  /// anything serialized from it, like METRICS_REPORT) is identical across
  /// runs and across processes. This is the wire-metrics hook: a node
  /// daemon's local collector knows only the pairs *it* discovered, so it
  /// ships this snapshot to the coordinator, which merges the snapshots of
  /// all nodes (union_sorted_pairs) to perform the global dedup the
  /// one-process experiments get from sharing a single instance.
  std::vector<stream::ResultPair> pairs() const;

  /// Total (non-deduplicated) pair reports, for double-discovery diagnostics.
  std::uint64_t total_reports() const noexcept { return total_reports_; }

  /// Virtual time of the most recent report.
  double last_report_time() const noexcept { return last_report_time_; }

  /// Pairs first discovered by each node.
  const std::vector<std::uint64_t>& per_node_discoveries() const noexcept {
    return per_node_;
  }

  /// Sizes the per-node vector; call before the run starts.
  void set_node_count(std::size_t nodes) { per_node_.assign(nodes, 0); }

 private:
  struct PendingReport {
    stream::ResultPair pair;
    net::NodeId discoverer;
    double now;
  };

  /// Inserts `pair` into the dedup table; false if it was already there.
  bool insert(const stream::ResultPair& pair);
  void grow();

  std::vector<stream::ResultPair> slots_;  // capacity: 0 or a power of two
  std::vector<std::uint8_t> occupied_;     // 1 where slots_[i] holds a pair
  std::size_t size_ = 0;
  const void* epoch_group_ = this;
  std::vector<std::uint64_t> per_node_;
  std::uint64_t total_reports_ = 0;
  double last_report_time_ = 0.0;
  bool epoch_open_ = false;
  std::vector<std::vector<PendingReport>> epoch_reports_;  // by slot
};

/// Union of pair lists, sorted ascending by (r_id, s_id), without
/// duplicates. Inputs are expected sorted (pairs() snapshots are), so the
/// union is a k-way merge; every input is checked in O(n) and one that is
/// not strictly ascending (a hostile or corrupted report) is sorted and
/// deduplicated on a copy first. A single input comes back as a copy.
std::vector<stream::ResultPair> union_sorted_pairs(
    std::span<const std::span<const stream::ResultPair>> lists);

}  // namespace dsjoin::core
