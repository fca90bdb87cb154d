#include "dsjoin/core/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dsjoin::core {

namespace {
// Which collector/slot the current thread buffers reports for (mirrors the
// SimTransport epoch binding; thread-local so node workers never share it).
struct EpochBinding {
  const void* collector = nullptr;
  std::size_t slot = 0;
};
thread_local EpochBinding tls_epoch_binding;

constexpr std::size_t kInitialCapacity = 16;

// A function object, not a function, so std::sort inlines the comparison.
constexpr auto pair_less = [](const stream::ResultPair& a,
                              const stream::ResultPair& b) {
  if (a.r_id != b.r_id) return a.r_id < b.r_id;
  return a.s_id < b.s_id;
};
}  // namespace

void MetricsCollector::record_pair(const stream::ResultPair& pair,
                                   net::NodeId discoverer, double now) {
  if (epoch_open_ && tls_epoch_binding.collector == epoch_group_) {
    epoch_reports_[tls_epoch_binding.slot].push_back(
        PendingReport{pair, discoverer, now});
    return;
  }
  ++total_reports_;
  if (now > last_report_time_) last_report_time_ = now;
  if (insert(pair) && discoverer < per_node_.size()) {
    ++per_node_[discoverer];
  }
}

bool MetricsCollector::insert(const stream::ResultPair& pair) {
  if (2 * (size_ + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = stream::ResultPairHash{}(pair) & mask;
  while (occupied_[i]) {
    if (slots_[i] == pair) return false;
    i = (i + 1) & mask;
  }
  slots_[i] = pair;
  occupied_[i] = 1;
  ++size_;
  return true;
}

void MetricsCollector::grow() {
  const std::size_t capacity =
      slots_.empty() ? kInitialCapacity : 2 * slots_.size();
  const std::vector<stream::ResultPair> old_slots =
      std::exchange(slots_, std::vector<stream::ResultPair>(capacity));
  const std::vector<std::uint8_t> old_occupied =
      std::exchange(occupied_, std::vector<std::uint8_t>(capacity, 0));
  const std::size_t mask = capacity - 1;
  for (std::size_t j = 0; j < old_slots.size(); ++j) {
    if (!old_occupied[j]) continue;
    std::size_t i = stream::ResultPairHash{}(old_slots[j]) & mask;
    while (occupied_[i]) i = (i + 1) & mask;
    slots_[i] = old_slots[j];
    occupied_[i] = 1;
  }
}

std::vector<stream::ResultPair> MetricsCollector::pairs() const {
  std::vector<stream::ResultPair> snapshot;
  snapshot.reserve(size_);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (occupied_[i]) snapshot.push_back(slots_[i]);
  }
  std::sort(snapshot.begin(), snapshot.end(), pair_less);
  return snapshot;
}

void MetricsCollector::begin_epoch(std::size_t slots) {
  assert(!epoch_open_);
  if (epoch_reports_.size() < slots) epoch_reports_.resize(slots);
  epoch_open_ = true;
}

void MetricsCollector::bind_epoch_slot(std::size_t slot) {
  tls_epoch_binding = EpochBinding{epoch_group_, slot};
}

void MetricsCollector::end_epoch() {
  assert(epoch_open_);
  epoch_open_ = false;
  for (auto& slot : epoch_reports_) {
    for (const auto& report : slot) {
      record_pair(report.pair, report.discoverer, report.now);
    }
    slot.clear();
  }
}

std::vector<stream::ResultPair> union_sorted_pairs(
    std::span<const std::span<const stream::ResultPair>> lists) {
  using Run = std::span<const stream::ResultPair>;
  // Sorted, deduplicated copies of the inputs that were not strictly
  // ascending; the runs below point into them.
  std::vector<std::vector<stream::ResultPair>> repaired;
  std::vector<Run> runs;
  std::size_t total = 0;
  for (Run list : lists) {
    if (list.empty()) continue;
    const auto not_ascending = [](const stream::ResultPair& a,
                                  const stream::ResultPair& b) {
      return !pair_less(a, b);
    };
    if (std::adjacent_find(list.begin(), list.end(), not_ascending) !=
        list.end()) {
      auto& copy = repaired.emplace_back(list.begin(), list.end());
      std::sort(copy.begin(), copy.end(), pair_less);
      copy.erase(std::unique(copy.begin(), copy.end()), copy.end());
      list = copy;
    }
    runs.push_back(list);
    total += list.size();
  }
  if (runs.size() == 1) return {runs[0].begin(), runs[0].end()};

  // k-way merge over a min-heap of run cursors. Each run is strictly
  // ascending, so a duplicate can only equal the last pair emitted.
  std::vector<stream::ResultPair> out;
  out.reserve(total);
  const auto later = [](const Run& a, const Run& b) {
    return pair_less(b.front(), a.front());
  };
  std::make_heap(runs.begin(), runs.end(), later);
  while (!runs.empty()) {
    std::pop_heap(runs.begin(), runs.end(), later);
    Run& run = runs.back();
    if (out.empty() || out.back() != run.front()) out.push_back(run.front());
    run = run.subspan(1);
    if (run.empty()) {
      runs.pop_back();
    } else {
      std::push_heap(runs.begin(), runs.end(), later);
    }
  }
  return out;
}

}  // namespace dsjoin::core
