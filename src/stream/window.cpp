#include "dsjoin/stream/window.hpp"

#include <algorithm>
#include <cassert>

#include "dsjoin/common/simd.hpp"

namespace dsjoin::stream {

void TupleStore::insert(const Tuple& tuple, std::uint64_t mask) {
  Partition& part = parts_[part_of(tuple.key)];
  if (part.chunks.empty() || part.chunks.back()->n() == kChunkCap) {
    part.chunks.push_back(std::make_unique<Chunk>());
  }
  Chunk& c = *part.chunks.back();
  if (!c.ts.empty() && tuple.timestamp < c.ts.back()) c.sorted = false;
  if (mask != kAllQueries || !c.masks.empty()) {
    c.masks.resize(c.n(), kAllQueries);  // materializes the column
    c.masks.push_back(mask);
  }
  c.keys.push_back(tuple.key);
  c.ts.push_back(tuple.timestamp);
  c.ids.push_back(tuple.id);
  c.origins.push_back(tuple.origin);
  if (tuple.timestamp < c.live_min) c.live_min = tuple.timestamp;
  if (tuple.timestamp > c.max_ts) c.max_ts = tuple.timestamp;
  ++size_;
}

void TupleStore::insert_batch(std::span<const Tuple> tuples) {
  for (const Tuple& tuple : tuples) insert(tuple);
}

template <class Keep>
void TupleStore::compact(Chunk& c, Keep keep) {
  // Order-preserving (observable via for_each_match); the exact bounds are
  // recomputed while the data streams through.
  std::size_t w = 0;
  double live_min = std::numeric_limits<double>::infinity();
  double max_ts = -std::numeric_limits<double>::infinity();
  double prev = -std::numeric_limits<double>::infinity();
  bool sorted = true;
  for (std::size_t r = c.live_begin; r < c.n(); ++r) {
    if (!keep(r)) continue;
    c.keys[w] = c.keys[r];
    c.ts[w] = c.ts[r];
    c.ids[w] = c.ids[r];
    c.origins[w] = c.origins[r];
    if (!c.masks.empty()) c.masks[w] = c.masks[r];
    if (c.ts[w] < live_min) live_min = c.ts[w];
    if (c.ts[w] > max_ts) max_ts = c.ts[w];
    if (c.ts[w] < prev) sorted = false;
    prev = c.ts[w];
    ++w;
  }
  size_ -= c.live() - w;
  c.keys.resize(w);
  c.ts.resize(w);
  c.ids.resize(w);
  c.origins.resize(w);
  if (!c.masks.empty()) c.masks.resize(w);
  c.live_begin = 0;
  c.live_min = live_min;
  c.max_ts = max_ts;
  c.sorted = sorted;
}

void TupleStore::evict_before(double min_timestamp) {
  for (Partition& part : parts_) {
    bool any_empty = false;
    for (auto& chunk : part.chunks) {
      Chunk& c = *chunk;
      // live_min is exact over the live region, so a chunk whose oldest
      // live tuple already meets the horizon is skipped without touching
      // its columns — the steady-state cost of eviction is one double
      // compare per chunk, not per tuple.
      if (c.live() == 0 || c.live_min >= min_timestamp) {
        any_empty |= c.live() == 0;
        continue;
      }
      if (c.sorted) {
        // Dead tuples form a prefix: advance the cursor, never move data.
        std::size_t b = c.live_begin;
        const std::size_t n = c.n();
        while (b < n && c.ts[b] < min_timestamp) ++b;
        size_ -= b - c.live_begin;
        c.live_begin = b;
        c.live_min =
            b < n ? c.ts[b] : std::numeric_limits<double>::infinity();
      } else {
        // A late arrival broke the sort: compact the live region in place.
        compact(c, [&](std::size_t r) { return c.ts[r] >= min_timestamp; });
      }
      any_empty |= c.live() == 0;
    }
    if (any_empty) {
      std::erase_if(part.chunks, [](const std::unique_ptr<Chunk>& c) {
        return c->live() == 0;
      });
    }
  }
}

void TupleStore::evict_masked(std::span<const double> horizons) {
  assert(!horizons.empty() && horizons.size() <= 64);
  const std::size_t queries = horizons.size();
  const std::uint64_t live_bits =
      queries == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << queries) - 1;
  double top = -std::numeric_limits<double>::infinity();
  double bottom = std::numeric_limits<double>::infinity();
  for (const double h : horizons) {
    top = std::max(top, h);
    bottom = std::min(bottom, h);
  }
  for (Partition& part : parts_) {
    bool any_empty = false;
    for (auto& chunk : part.chunks) {
      Chunk& c = *chunk;
      // No live tuple below the newest horizon: no bit to clear.
      if (c.live() == 0 || c.live_min >= top) {
        any_empty |= c.live() == 0;
        continue;
      }
      // A chunk without a mask column holds only unmasked tuples; under
      // equal horizons they expire whole, so the column stays absent.
      if (c.masks.empty() && bottom < top) c.masks.assign(c.n(), kAllQueries);
      // Clear the expired bits of every tuple below the newest horizon (in
      // a sorted chunk, a prefix), counting the tuples left with none and
      // how many of them lead the live region.
      const std::size_t n = c.n();
      std::size_t dead = 0;
      std::size_t lead = 0;
      for (std::size_t i = c.live_begin; i < n; ++i) {
        const double t = c.ts[i];
        if (t >= top) {
          if (c.sorted) break;
          continue;
        }
        std::uint64_t mask = c.masks.empty() ? kAllQueries : c.masks[i];
        for (std::size_t q = 0; q < queries; ++q) {
          if (t < horizons[q]) mask &= ~(std::uint64_t{1} << q);
        }
        if (!c.masks.empty()) c.masks[i] = mask;
        if ((mask & live_bits) == 0) {
          lead += dead == i - c.live_begin;
          ++dead;
        }
      }
      if (dead == 0) continue;
      if (c.sorted && lead == dead) {
        // Every dropped tuple leads the chunk: advance the cursor.
        c.live_begin += dead;
        size_ -= dead;
        c.live_min = c.live_begin < n ? c.ts[c.live_begin]
                                      : std::numeric_limits<double>::infinity();
      } else {
        compact(c, [&](std::size_t r) {
          return c.masks.empty() ? c.ts[r] >= top
                                 : (c.masks[r] & live_bits) != 0;
        });
      }
      any_empty |= c.live() == 0;
    }
    if (any_empty) {
      std::erase_if(part.chunks, [](const std::unique_ptr<Chunk>& c) {
        return c->live() == 0;
      });
    }
  }
}

std::uint64_t TupleStore::count_matches(std::int64_t key, double center,
                                        double half_width) const {
  const double lo = center - half_width;
  const double hi = center + half_width;
  const Partition& part = parts_[part_of(key)];
  std::uint64_t n = 0;
  for (const auto& chunk : part.chunks) {
    const Chunk& c = *chunk;
    if (c.live() == 0 || c.max_ts < lo || c.live_min > hi) continue;
    n += common::simd::match_count_scan(c.keys.data() + c.live_begin,
                                        c.ts.data() + c.live_begin, c.live(),
                                        key, lo, hi);
  }
  return n;
}

template <class Fn>
void TupleStore::visit_matches(std::int64_t key, double center,
                               double half_width, Fn&& fn) const {
  const double lo = center - half_width;
  const double hi = center + half_width;
  const Partition& part = parts_[part_of(key)];
  std::uint32_t idx[kChunkCap];
  for (const auto& chunk : part.chunks) {
    const Chunk& c = *chunk;
    if (c.live() == 0 || c.max_ts < lo || c.live_min > hi) continue;
    const std::size_t m = common::simd::match_collect_scan(
        c.keys.data() + c.live_begin, c.ts.data() + c.live_begin, c.live(),
        key, lo, hi, idx);
    for (std::size_t k = 0; k < m; ++k) fn(c, c.live_begin + idx[k]);
  }
}

void TupleStore::for_each_match(
    std::int64_t key, double center, double half_width,
    const std::function<void(const StoredTuple&)>& fn) const {
  visit_matches(key, center, half_width, [&](const Chunk& c, std::size_t j) {
    fn(StoredTuple{c.ids[j], c.ts[j], c.origins[j]});
  });
}

void TupleStore::collect_matches(std::int64_t key, double center,
                                 double half_width,
                                 std::vector<StoredTuple>& out) const {
  visit_matches(key, center, half_width, [&](const Chunk& c, std::size_t j) {
    out.push_back(StoredTuple{c.ids[j], c.ts[j], c.origins[j]});
  });
}

void TupleStore::collect_matches(std::int64_t key, double center,
                                 double half_width,
                                 std::vector<StoredTuple>& out,
                                 std::vector<std::uint64_t>& masks) const {
  visit_matches(key, center, half_width, [&](const Chunk& c, std::size_t j) {
    out.push_back(StoredTuple{c.ids[j], c.ts[j], c.origins[j]});
    masks.push_back(c.masks.empty() ? kAllQueries : c.masks[j]);
  });
}

void TupleStore::count_matches_batch(std::span<const Tuple> probes,
                                     double half_width,
                                     std::uint64_t* counts) const {
  for (std::size_t i = 0; i < probes.size(); ++i) {
    counts[i] = count_matches(probes[i].key, probes[i].timestamp, half_width);
  }
}

void TupleStore::for_each_match_batch(
    std::span<const Tuple> probes, double half_width,
    const std::function<void(std::size_t, const StoredTuple&)>& fn) const {
  for (std::size_t i = 0; i < probes.size(); ++i) {
    visit_matches(probes[i].key, probes[i].timestamp, half_width,
                  [&](const Chunk& c, std::size_t j) {
                    fn(i, StoredTuple{c.ids[j], c.ts[j], c.origins[j]});
                  });
  }
}

CountWindow::CountWindow(std::size_t capacity) : capacity_(capacity) {
  assert(capacity >= 1);
}

CountWindow::Evicted CountWindow::insert(const Tuple& tuple) {
  Evicted evicted;
  if (ring_.size() == capacity_) {
    evicted.valid = true;
    evicted.tuple = ring_.front();
    auto it = key_counts_.find(evicted.tuple.key);
    assert(it != key_counts_.end());
    if (--it->second == 0) key_counts_.erase(it);
    ring_.pop_front();
  }
  ring_.push_back(tuple);
  ++key_counts_[tuple.key];
  return evicted;
}

void CountWindow::insert_batch(std::span<const Tuple> tuples,
                               std::vector<Tuple>& evicted) {
  std::size_t i = 0;
  // While the window still has room for the whole remaining batch, no
  // insert can evict: skip the capacity check and front-eviction
  // bookkeeping per tuple.
  const std::size_t room = capacity_ - ring_.size();
  const std::size_t free_fill = std::min(room, tuples.size());
  for (; i < free_fill; ++i) {
    ring_.push_back(tuples[i]);
    ++key_counts_[tuples[i].key];
  }
  for (; i < tuples.size(); ++i) {
    Evicted e = insert(tuples[i]);
    if (e.valid) evicted.push_back(std::move(e.tuple));
  }
}

std::uint64_t CountWindow::count_matches(std::int64_t key) const {
  const auto it = key_counts_.find(key);
  return it == key_counts_.end() ? 0 : it->second;
}

std::vector<ResultPair> reference_join(const std::vector<Tuple>& r_tuples,
                                       const std::vector<Tuple>& s_tuples,
                                       double half_width) {
  std::vector<ResultPair> out;
  for (const Tuple& r : r_tuples) {
    for (const Tuple& s : s_tuples) {
      if (r.key == s.key &&
          s.timestamp >= r.timestamp - half_width &&
          s.timestamp <= r.timestamp + half_width) {
        out.push_back(ResultPair{r.id, s.id});
      }
    }
  }
  return out;
}

}  // namespace dsjoin::stream
