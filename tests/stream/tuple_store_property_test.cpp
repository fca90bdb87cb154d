// Property tests for the partitioned SoA TupleStore (DESIGN.md §16): the
// store must agree with stream::reference_join and with a brute-force
// shadow under out-of-order arrivals, duplicate timestamps, boundary-exact
// half-width matches, and eviction-horizon races — at every SIMD level the
// host supports (the match-scan kernels feed every probe).

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "dsjoin/common/rng.hpp"
#include "dsjoin/common/simd.hpp"
#include "dsjoin/stream/window.hpp"

namespace dsjoin::stream {
namespace {

namespace simd = common::simd;

std::vector<simd::Level> supported_levels() {
  std::vector<simd::Level> out{simd::Level::kScalar};
  for (const simd::Level level :
       {simd::Level::kNeon, simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (level <= simd::detected_level()) out.push_back(level);
  }
  return out;
}

struct ForcedLevel {
  explicit ForcedLevel(simd::Level level) { simd::force_level(level); }
  ~ForcedLevel() { simd::reset_level(); }
};

// Timestamps on a 0.25 grid: duplicates are common and probe bounds land
// exactly on stored values (the inclusive-boundary case is always hit).
// Arrival order is shuffled-by-construction: each step jumps backwards with
// probability 1/4, so chunks go unsorted and eviction must compact.
std::vector<Tuple> random_tuples(std::size_t n, StreamSide side,
                                 std::uint64_t id_base,
                                 common::Xoshiro256& rng) {
  std::vector<Tuple> out(n);
  double ts = 8.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.next() % 4 == 0) {
      ts -= 0.25 * static_cast<double>(rng.next() % 16);
    } else {
      ts += 0.25 * static_cast<double>(rng.next() % 4);
    }
    out[i].id = id_base + i;
    out[i].key = static_cast<std::int64_t>(rng.next() % 24);
    out[i].timestamp = ts;
    out[i].origin = static_cast<net::NodeId>(rng.next() % 4);
    out[i].side = side;
  }
  return out;
}

// Streaming probe-then-insert against one store must reproduce the
// reference join: each S tuple probes the R store before insertion order
// matters (R is fully loaded first), so every (r, s) pair within the
// half-width appears exactly once.
TEST(TupleStoreProperty, StreamingProbeMatchesReferenceJoin) {
  for (const simd::Level level : supported_levels()) {
    ForcedLevel forced(level);
    common::Xoshiro256 rng(991);
    const auto r_tuples = random_tuples(400, StreamSide::kR, 1000, rng);
    const auto s_tuples = random_tuples(400, StreamSide::kS, 500000, rng);
    // Boundary-exact half-width: 0.5 is a grid multiple, so |dt| == hw
    // occurs often and both bounds must be inclusive.
    const double half_width = 0.5;

    TupleStore store;
    for (const Tuple& r : r_tuples) store.insert(r);

    std::vector<ResultPair> got;
    std::vector<StoredTuple> matches;
    for (const Tuple& s : s_tuples) {
      EXPECT_EQ(store.count_matches(s.key, s.timestamp, half_width),
                [&] {
                  matches.clear();
                  store.collect_matches(s.key, s.timestamp, half_width,
                                        matches);
                  return matches.size();
                }())
          << simd::level_name(level);
      for (const StoredTuple& m : matches) {
        got.push_back(ResultPair{m.id, s.id});
      }
    }

    auto want = reference_join(r_tuples, s_tuples, half_width);
    auto order = [](const ResultPair& a, const ResultPair& b) {
      return a.r_id != b.r_id ? a.r_id < b.r_id : a.s_id < b.s_id;
    };
    std::sort(want.begin(), want.end(), order);
    std::sort(got.begin(), got.end(), order);
    ASSERT_EQ(want.size(), got.size()) << simd::level_name(level);
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i].r_id, got[i].r_id) << simd::level_name(level);
      ASSERT_EQ(want[i].s_id, got[i].s_id) << simd::level_name(level);
    }
  }
}

// Interleaved insert / evict / probe against a brute-force shadow vector.
// Checks size(), count_matches, and the exact for_each_match id sequence —
// the store pins per-key insertion order as its visitation order.
TEST(TupleStoreProperty, EvictionRacesMatchShadow) {
  for (const simd::Level level : supported_levels()) {
    ForcedLevel forced(level);
    for (const std::uint64_t seed : {7ull, 4242ull, 90210ull}) {
      common::Xoshiro256 rng(seed);
      const auto tuples = random_tuples(1200, StreamSide::kR, 1, rng);

      TupleStore store;
      std::vector<Tuple> shadow;  // insertion order preserved
      double horizon = -std::numeric_limits<double>::infinity();

      for (std::size_t i = 0; i < tuples.size(); ++i) {
        store.insert(tuples[i]);
        shadow.push_back(tuples[i]);
        if (rng.next() % 16 == 0) {
          // Horizon near the probe window's trailing edge: tuples die right
          // where probes look. A tuple inserted after an eviction with an
          // older timestamp must survive until the next eviction — the
          // shadow erase models exactly that.
          horizon = tuples[i].timestamp - 0.25 * double(rng.next() % 12);
          store.evict_before(horizon);
          std::erase_if(shadow, [&](const Tuple& t) {
            return t.timestamp < horizon;
          });
          ASSERT_EQ(shadow.size(), store.size())
              << simd::level_name(level) << " seed=" << seed << " i=" << i;
        }
        if (rng.next() % 8 == 0) {
          const Tuple& probe = tuples[rng.next() % (i + 1)];
          const double hw = 0.25 * static_cast<double>(rng.next() % 8);
          std::uint64_t want_count = 0;
          std::vector<std::uint64_t> want_ids;
          for (const Tuple& t : shadow) {
            if (t.key == probe.key &&
                t.timestamp >= probe.timestamp - hw &&
                t.timestamp <= probe.timestamp + hw) {
              ++want_count;
              want_ids.push_back(t.id);
            }
          }
          EXPECT_EQ(want_count,
                    store.count_matches(probe.key, probe.timestamp, hw))
              << simd::level_name(level) << " seed=" << seed << " i=" << i;
          std::vector<std::uint64_t> got_ids;
          store.for_each_match(probe.key, probe.timestamp, hw,
                               [&](const StoredTuple& m) {
                                 got_ids.push_back(m.id);
                               });
          ASSERT_EQ(want_ids, got_ids)
              << simd::level_name(level) << " seed=" << seed << " i=" << i;
        }
      }
    }
  }
}

// The batched probe entry points must be the point probes verbatim:
// counts[i] == count_matches(probe i), and the (probe index, match)
// sequence of for_each_match_batch == concatenated for_each_match calls.
TEST(TupleStoreProperty, BatchProbesMatchPointProbes) {
  for (const simd::Level level : supported_levels()) {
    ForcedLevel forced(level);
    common::Xoshiro256 rng(31337);
    const auto stored = random_tuples(800, StreamSide::kR, 1, rng);
    const auto probes = random_tuples(257, StreamSide::kS, 10000, rng);
    const double half_width = 0.75;

    TupleStore store;
    store.insert_batch(stored);
    store.evict_before(6.0);  // leave a dead prefix in sorted chunks

    std::vector<std::uint64_t> counts(probes.size());
    store.count_matches_batch(probes, half_width, counts.data());
    for (std::size_t i = 0; i < probes.size(); ++i) {
      EXPECT_EQ(counts[i], store.count_matches(probes[i].key,
                                               probes[i].timestamp, half_width))
          << simd::level_name(level) << " i=" << i;
    }

    std::vector<std::pair<std::size_t, std::uint64_t>> want, got;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      store.for_each_match(probes[i].key, probes[i].timestamp, half_width,
                           [&](const StoredTuple& m) {
                             want.emplace_back(i, m.id);
                           });
    }
    store.for_each_match_batch(probes, half_width,
                               [&](std::size_t i, const StoredTuple& m) {
                                 got.emplace_back(i, m.id);
                               });
    ASSERT_EQ(want, got) << simd::level_name(level);
  }
}

}  // namespace
}  // namespace dsjoin::stream

namespace dsjoin::stream {
namespace {

// One shared store with a query-mask column against one plain store per
// query: random masks, out-of-order timestamps, tuples inserted after an
// eviction below its horizon, and horizons that move in any order. Query q
// must see, probe for probe, exactly its own store's matches in the same
// order; the shared store must hold exactly the tuples some query still
// sees.
TEST(TupleStoreMask, SharedStoreMatchesPerQueryStores) {
  for (const simd::Level level : supported_levels()) {
    ForcedLevel forced(level);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      common::Xoshiro256 rng(seed * 131);
      const std::size_t queries = 1 + seed % 5;
      std::vector<double> half_width(queries);
      std::vector<double> retention(queries);
      for (std::size_t q = 0; q < queries; ++q) {
        half_width[q] = 0.25 * static_cast<double>(1 + rng.next() % 8);
        retention[q] = 2.0 * half_width[q] + 0.25 * static_cast<double>(rng.next() % 4);
      }
      const double widest = *std::max_element(half_width.begin(), half_width.end());
      const std::uint64_t all_bits = (std::uint64_t{1} << queries) - 1;

      TupleStore shared;
      std::vector<TupleStore> own(queries);
      struct Shadow {
        double ts;
        std::uint64_t bits;
      };
      std::vector<std::pair<std::uint64_t, Shadow>> shadow;  // id -> live bits
      const auto tuples = random_tuples(3000, StreamSide::kR, 0, rng);
      std::vector<double> horizons(queries);
      double clock = 0.0;
      for (std::size_t i = 0; i < tuples.size(); ++i) {
        Tuple t = tuples[i];
        clock = std::max(clock, t.timestamp);
        // Now and then a straggler far below every horizon applied so far.
        if (rng.next() % 50 == 0) t.timestamp = clock - 2.0 * widest - 3.0;
        std::uint64_t mask = 0;
        while (mask == 0) mask = rng.next() & all_bits;
        // Tuples every query routed are stored unmasked, as the node does.
        shared.insert(t, mask == all_bits ? TupleStore::kAllQueries : mask);
        for (std::size_t q = 0; q < queries; ++q) {
          if (mask >> q & 1) own[q].insert(t);
        }
        shadow.push_back({t.id, Shadow{t.timestamp, mask}});

        if (rng.next() % 16 == 0) {
          // Horizons jitter around each query's retention, so successive
          // evictions are not monotone per query and cross each other.
          for (std::size_t q = 0; q < queries; ++q) {
            horizons[q] = clock - retention[q] -
                          0.25 * static_cast<double>(rng.next() % 12);
            own[q].evict_before(horizons[q]);
          }
          shared.evict_masked(horizons);
          std::erase_if(shadow, [&](auto& entry) {
            for (std::size_t q = 0; q < queries; ++q) {
              if (entry.second.ts < horizons[q]) {
                entry.second.bits &= ~(std::uint64_t{1} << q);
              }
            }
            return entry.second.bits == 0;
          });
          ASSERT_EQ(shared.size(), shadow.size()) << "seed " << seed;
        }

        const std::int64_t key = static_cast<std::int64_t>(rng.next() % 24);
        const double center = clock - 0.25 * static_cast<double>(rng.next() % 16);
        std::vector<StoredTuple> wide;
        std::vector<std::uint64_t> masks;
        shared.collect_matches(key, center, widest, wide, masks);
        ASSERT_EQ(wide.size(), masks.size());
        // Unmasked probes see the same live tuples (evicted ones that
        // still sit in a chunk are skipped).
        ASSERT_EQ(shared.count_matches(key, center, widest), wide.size());
        std::vector<StoredTuple> plain;
        shared.collect_matches(key, center, widest, plain);
        ASSERT_EQ(plain.size(), wide.size());
        for (std::size_t q = 0; q < queries; ++q) {
          std::vector<StoredTuple> expect;
          own[q].collect_matches(key, center, half_width[q], expect);
          std::vector<StoredTuple> got;
          const double lo = center - half_width[q];
          const double hi = center + half_width[q];
          for (std::size_t k = 0; k < wide.size(); ++k) {
            if ((masks[k] >> q & 1) && wide[k].timestamp >= lo &&
                wide[k].timestamp <= hi) {
              got.push_back(wide[k]);
            }
          }
          ASSERT_EQ(got.size(), expect.size())
              << "seed " << seed << " query " << q << " step " << i;
          for (std::size_t k = 0; k < got.size(); ++k) {
            ASSERT_EQ(got[k].id, expect[k].id);
            ASSERT_EQ(got[k].timestamp, expect[k].timestamp);
            ASSERT_EQ(got[k].origin, expect[k].origin);
          }
        }
      }
    }
  }
}

TEST(TupleStoreMask, EqualHorizonsKeepUnmaskedChunksColumnFree) {
  // With one query (or equal horizons) unmasked tuples expire whole: the
  // masked eviction then behaves exactly like evict_before.
  common::Xoshiro256 rng(77);
  const auto tuples = random_tuples(2000, StreamSide::kS, 0, rng);
  TupleStore masked;
  TupleStore plain;
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    masked.insert(tuples[i]);
    plain.insert(tuples[i]);
    if (i % 97 == 0) {
      const double h = tuples[i].timestamp - 3.0;
      const double horizons[2] = {h, h};
      masked.evict_masked(horizons);
      plain.evict_before(h);
      ASSERT_EQ(masked.size(), plain.size());
    }
  }
  for (std::int64_t key = 0; key < 24; ++key) {
    std::vector<StoredTuple> a;
    std::vector<StoredTuple> b;
    std::vector<std::uint64_t> masks;
    masked.collect_matches(key, 40.0, 60.0, a, masks);
    plain.collect_matches(key, 40.0, 60.0, b);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_EQ(a[k].id, b[k].id);
      EXPECT_EQ(masks[k], TupleStore::kAllQueries);
    }
  }
}

}  // namespace
}  // namespace dsjoin::stream
