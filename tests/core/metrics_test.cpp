#include "dsjoin/core/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "dsjoin/common/rng.hpp"
#include "dsjoin/core/experiment.hpp"
#include "dsjoin/core/node_host.hpp"
#include "dsjoin/core/schedule.hpp"
#include "dsjoin/core/system.hpp"
#include "dsjoin/net/sim_transport.hpp"

namespace dsjoin::core {
namespace {

using stream::ResultPair;
using Key = std::pair<std::uint64_t, std::uint64_t>;
using Reference = std::set<Key>;

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

Key key_of(const ResultPair& p) { return {p.r_id, p.s_id}; }

std::vector<ResultPair> to_pairs(const Reference& reference) {
  std::vector<ResultPair> out;
  out.reserve(reference.size());
  for (const auto& [r, s] : reference) out.push_back(ResultPair{r, s});
  return out;
}

/// `distinct` random pairs — dense small ids (colliding low hash bits),
/// full-width ids and the two extreme pairs — each reported 1-4 times
/// (about 2.5 on average) in a shuffled order.
std::vector<ResultPair> random_reports(common::Xoshiro256& rng,
                                       std::size_t distinct) {
  Reference seen{{0, 0}, {kMax, kMax}};
  while (seen.size() < distinct) {
    switch (rng.next_below(3)) {
      case 0:
        seen.emplace(rng.next_below(256), rng.next_below(256));
        break;
      case 1:
        seen.emplace(rng.next(), rng.next());
        break;
      default:
        seen.emplace(rng.next_below(4) == 0 ? kMax : rng.next_below(1 << 20),
                     rng.next_below(4) == 0 ? 0 : rng.next());
        break;
    }
  }
  std::vector<ResultPair> reports;
  for (const auto& [r, s] : seen) {
    const std::uint64_t copies = 1 + rng.next_below(4);
    for (std::uint64_t c = 0; c < copies; ++c) reports.push_back({r, s});
  }
  for (std::size_t i = reports.size(); i > 1; --i) {
    std::swap(reports[i - 1], reports[rng.next_below(i)]);
  }
  return reports;
}

/// Reference union of several lists.
Reference union_of(const std::vector<std::vector<ResultPair>>& lists) {
  Reference out;
  for (const auto& list : lists) {
    for (const auto& p : list) out.insert(key_of(p));
  }
  return out;
}

std::vector<ResultPair> union_helper(
    const std::vector<std::vector<ResultPair>>& lists) {
  std::vector<std::span<const ResultPair>> spans(lists.begin(), lists.end());
  return union_sorted_pairs(spans);
}

TEST(MetricsCollector, DeduplicatesPairs) {
  MetricsCollector metrics;
  metrics.set_node_count(3);
  metrics.record_pair({1, 2}, 0, 1.0);
  metrics.record_pair({1, 2}, 1, 2.0);  // duplicate discovery at another node
  metrics.record_pair({2, 1}, 1, 3.0);  // distinct (order matters: R vs S id)
  EXPECT_EQ(metrics.distinct_pairs(), 2u);
  EXPECT_EQ(metrics.total_reports(), 3u);
}

TEST(MetricsCollector, CreditsFirstDiscoverer) {
  MetricsCollector metrics;
  metrics.set_node_count(2);
  metrics.record_pair({1, 2}, 1, 1.0);
  metrics.record_pair({1, 2}, 0, 2.0);
  metrics.record_pair({3, 4}, 0, 3.0);
  EXPECT_EQ(metrics.per_node_discoveries()[0], 1u);
  EXPECT_EQ(metrics.per_node_discoveries()[1], 1u);
}

TEST(MetricsCollector, TracksLastReportTime) {
  MetricsCollector metrics;
  metrics.set_node_count(1);
  EXPECT_DOUBLE_EQ(metrics.last_report_time(), 0.0);
  metrics.record_pair({1, 1}, 0, 5.0);
  metrics.record_pair({2, 2}, 0, 3.0);  // earlier report does not move it back
  EXPECT_DOUBLE_EQ(metrics.last_report_time(), 5.0);
}

TEST(MetricsCollector, OutOfRangeDiscovererIsSafe) {
  MetricsCollector metrics;
  metrics.set_node_count(1);
  metrics.record_pair({9, 9}, 57, 1.0);  // no per-node slot; still counted
  EXPECT_EQ(metrics.distinct_pairs(), 1u);
}

TEST(MetricsCollector, ExtremePairsAreOrdinaryValues) {
  // No pair value is reserved to mark an empty slot.
  MetricsCollector metrics;
  metrics.set_node_count(1);
  EXPECT_EQ(metrics.distinct_pairs(), 0u);
  EXPECT_TRUE(metrics.pairs().empty());
  metrics.record_pair({0, 0}, 0, 1.0);
  metrics.record_pair({kMax, kMax}, 0, 1.0);
  metrics.record_pair({0, 0}, 0, 2.0);
  metrics.record_pair({kMax, kMax}, 0, 2.0);
  metrics.record_pair({0, kMax}, 0, 3.0);
  EXPECT_EQ(metrics.distinct_pairs(), 3u);
  EXPECT_EQ(metrics.per_node_discoveries()[0], 3u);
  const std::vector<ResultPair> expected{{0, 0}, {0, kMax}, {kMax, kMax}};
  EXPECT_EQ(metrics.pairs(), expected);
}

TEST(MetricsCollector, MatchesSetReferenceThroughManyGrowths) {
  // 40k distinct pairs take the table from 16 slots through 13 doublings.
  common::Xoshiro256 rng(2024);
  const auto reports = random_reports(rng, 40000);
  constexpr std::size_t kNodes = 5;
  MetricsCollector metrics;
  metrics.set_node_count(kNodes);
  Reference reference;
  std::vector<std::uint64_t> expected_per_node(kNodes, 0);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto node = static_cast<net::NodeId>(rng.next_below(kNodes));
    metrics.record_pair(reports[i], node, static_cast<double>(i));
    if (reference.insert(key_of(reports[i])).second) {
      ++expected_per_node[node];
    }
    // O(1) and valid mid-run (the heartbeat reads it).
    ASSERT_EQ(metrics.distinct_pairs(), reference.size()) << "report " << i;
    if (i % 9973 == 0) {
      ASSERT_EQ(metrics.pairs(), to_pairs(reference));
    }
  }
  EXPECT_GT(reports.size(), 2 * reference.size());
  EXPECT_LT(reports.size(), 3 * reference.size());
  EXPECT_EQ(metrics.total_reports(), reports.size());
  EXPECT_EQ(metrics.pairs(), to_pairs(reference));
  EXPECT_EQ(metrics.per_node_discoveries(), expected_per_node);
  EXPECT_TRUE(reference.count({0, 0}) && reference.count({kMax, kMax}));
}

TEST(MetricsCollector, EpochReportsApplyInSlotOrder) {
  // Reports buffered under shuffled slot bindings land exactly as if they
  // had been recorded serially in slot order.
  common::Xoshiro256 rng(99);
  const auto reports = random_reports(rng, 3000);
  constexpr std::size_t kSlots = 16;
  constexpr std::size_t kNodes = 4;
  std::vector<std::vector<std::pair<ResultPair, net::NodeId>>> by_slot(kSlots);
  for (const auto& pair : reports) {
    by_slot[rng.next_below(kSlots)].emplace_back(
        pair, static_cast<net::NodeId>(rng.next_below(kNodes)));
  }

  MetricsCollector serial;
  serial.set_node_count(kNodes);
  serial.record_pair({7, 7}, 0, 0.5);
  for (const auto& slot : by_slot) {
    for (const auto& [pair, node] : slot) serial.record_pair(pair, node, 1.0);
  }

  MetricsCollector epoch;
  epoch.set_node_count(kNodes);
  epoch.record_pair({7, 7}, 0, 0.5);  // applied before the epoch opens
  epoch.begin_epoch(kSlots);
  // Visit the slots in reverse, interleaving them pairwise.
  std::vector<std::size_t> cursor(kSlots, 0);
  for (bool more = true; more;) {
    more = false;
    for (std::size_t s = kSlots; s-- > 0;) {
      for (int step = 0; step < 2 && cursor[s] < by_slot[s].size(); ++step) {
        const auto& [pair, node] = by_slot[s][cursor[s]++];
        epoch.bind_epoch_slot(s);
        epoch.record_pair(pair, node, 1.0);
      }
      more |= cursor[s] < by_slot[s].size();
    }
  }
  EXPECT_EQ(epoch.distinct_pairs(), 1u);  // everything else is buffered
  epoch.end_epoch();
  EXPECT_EQ(epoch.distinct_pairs(), serial.distinct_pairs());
  EXPECT_EQ(epoch.total_reports(), serial.total_reports());
  EXPECT_EQ(epoch.pairs(), serial.pairs());
  EXPECT_EQ(epoch.per_node_discoveries(), serial.per_node_discoveries());
}

TEST(UnionSortedPairs, EmptyAndSingleInputs) {
  EXPECT_TRUE(union_helper({}).empty());
  EXPECT_TRUE(union_helper({{}, {}}).empty());
  const std::vector<ResultPair> sorted{{0, 0}, {1, 5}, {kMax, kMax}};
  EXPECT_EQ(union_helper({sorted}), sorted);  // a copy
  EXPECT_EQ(union_helper({{}, sorted, {}}), sorted);
  // A single unsorted, duplicate-laden list is repaired, not trusted.
  EXPECT_EQ(union_helper({{{kMax, kMax}, {1, 5}, {0, 0}, {1, 5}, {0, 0}}}),
            sorted);
}

TEST(UnionSortedPairs, MatchesSetReferenceOnAnyInput) {
  common::Xoshiro256 rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t count = 1 + rng.next_below(9);
    std::vector<std::vector<ResultPair>> lists(count);
    for (auto& list : lists) {
      MetricsCollector collector;  // sorted, strictly ascending snapshots
      for (const auto& p : random_reports(rng, rng.next_below(400))) {
        collector.record_pair(p, 0, 0.0);
      }
      list = collector.pairs();
      switch (rng.next_below(4)) {
        case 0:  // shuffled
          for (std::size_t i = list.size(); i > 1; --i) {
            std::swap(list[i - 1], list[rng.next_below(i)]);
          }
          break;
        case 1:  // sorted but with duplicates
          if (!list.empty()) {
            for (std::size_t i = 0; i < 20; ++i) {
              const std::size_t at = rng.next_below(list.size());
              list.insert(list.begin() + static_cast<std::ptrdiff_t>(at),
                          list[at]);
            }
          }
          break;
        case 2:  // descending
          std::reverse(list.begin(), list.end());
          break;
        default:  // as snapshotted
          break;
      }
    }
    // Overlap: every list shares pairs with the first one.
    if (count > 1 && !lists[0].empty()) {
      for (std::size_t l = 1; l < count; ++l) {
        lists[l].push_back(lists[0][rng.next_below(lists[0].size())]);
      }
    }
    EXPECT_EQ(union_helper(lists), to_pairs(union_of(lists)))
        << "trial " << trial;
  }
}

SystemConfig multi_query_config() {
  SystemConfig config;
  config.nodes = 4;
  config.tuples_per_node = 400;
  config.seed = 11;
  struct Q {
    PolicyKind policy;
    double half_width_s;
  };
  // Two identical queries make the per-query pair sets overlap.
  const Q queries[] = {{PolicyKind::kSample, 2.0},
                       {PolicyKind::kBloom, 4.0},
                       {PolicyKind::kRoundRobin, 3.0},
                       {PolicyKind::kRoundRobin, 3.0}};
  std::uint32_t id = 0;
  for (const Q& q : queries) {
    QuerySpec spec;
    spec.id = id++;
    spec.policy = q.policy;
    spec.join_half_width_s = q.half_width_s;
    config.queries.push_back(spec);
  }
  return config;
}

TEST(UnionSortedPairs, MultiQuerySystemResultIsTheSetUnion) {
  DspSystem system(multi_query_config());
  const ExperimentResult result = system.run();
  ASSERT_EQ(result.per_query.size(), 4u);
  std::vector<std::vector<ResultPair>> lists;
  for (std::size_t q = 0; q < result.per_query.size(); ++q) {
    EXPECT_EQ(result.per_query[q].pairs, system.query_metrics(q).pairs());
    EXPECT_GT(result.per_query[q].pairs.size(), 0u);
    lists.push_back(result.per_query[q].pairs);
  }
  EXPECT_EQ(result.per_query[2].pairs, result.per_query[3].pairs);
  EXPECT_EQ(result.pairs, to_pairs(union_of(lists)));
}

TEST(UnionSortedPairs, NodeHostReportIsTheSetUnion) {
  const SystemConfig config = multi_query_config();
  net::EventQueue queue;
  net::SimTransport transport(queue, config.nodes, net::WanProfile::ideal(), 1);
  common::Xoshiro256 rng(5);
  std::vector<MetricsCollector> collectors(config.queries.size());
  std::vector<MetricsCollector*> pointers;
  std::vector<std::vector<ResultPair>> lists;
  for (auto& collector : collectors) {
    collector.set_node_count(config.nodes);
    for (const auto& p : random_reports(rng, 500)) {
      collector.record_pair(p, 1, 0.0);
    }
    pointers.push_back(&collector);
    lists.push_back(collector.pairs());
  }
  NodeHost host(config, 1, transport,
                std::span<MetricsCollector* const>(pointers));
  const NodeReport report = host.report({});
  ASSERT_EQ(report.queries.size(), collectors.size());
  for (std::size_t q = 0; q < collectors.size(); ++q) {
    EXPECT_EQ(report.queries[q].pairs, lists[q]);
  }
  ExperimentResult result;
  aggregate_node_reports(std::span(&report, 1), &result, false);
  EXPECT_EQ(result.pairs, to_pairs(union_of(lists)));
}

TEST(UnionSortedPairs, AggregatedReportsAreTheSetUnion) {
  // Reports off the wire may be unsorted or carry duplicates; the
  // aggregate must still be the exact union, globally and per query.
  common::Xoshiro256 rng(13);
  constexpr std::size_t kQueries = 3;
  std::vector<NodeReport> reports(4);
  std::vector<std::vector<ResultPair>> all;
  std::vector<std::vector<std::vector<ResultPair>>> by_query(kQueries);
  for (std::size_t n = 0; n < reports.size(); ++n) {
    NodeReport& report = reports[n];
    report.node_id = static_cast<net::NodeId>(n);
    for (std::size_t q = 0; q < kQueries; ++q) {
      QueryNodeReport& slice = report.queries.emplace_back();
      slice.query_id = static_cast<std::uint32_t>(q);
      // Raw reports: shuffled, duplicate-laden (node 0 keeps them sorted).
      slice.pairs = random_reports(rng, 300);
      if (n == 0) {
        std::sort(slice.pairs.begin(), slice.pairs.end(),
                  [](const ResultPair& a, const ResultPair& b) {
                    return key_of(a) < key_of(b);
                  });
      }
      by_query[q].push_back(slice.pairs);
      all.push_back(slice.pairs);
    }
  }
  ExperimentResult result;
  aggregate_node_reports(reports, &result, false);
  EXPECT_EQ(result.pairs, to_pairs(union_of(all)));
  ASSERT_EQ(result.per_query.size(), kQueries);
  std::uint64_t reported = 0;
  for (std::size_t q = 0; q < kQueries; ++q) {
    const Reference expected = union_of(by_query[q]);
    EXPECT_EQ(result.per_query[q].pairs, to_pairs(expected));
    EXPECT_EQ(result.per_query[q].reported_pairs, expected.size());
    reported += expected.size();
  }
  EXPECT_EQ(result.reported_pairs, reported);
}

TEST(VerifyAgainstSchedule, NoReportsStillScoresEveryQuery) {
  // Every daemon died after START: nothing reported, yet each registered
  // query is scored against its own window, not the legacy scalar width.
  SystemConfig config;
  config.nodes = 3;
  config.tuples_per_node = 200;
  config.seed = 7;
  config.join_half_width_s = 6.0;
  const double widths[] = {1.0, 2.5, 4.0};
  for (std::uint32_t q = 0; q < 3; ++q) {
    QuerySpec spec;
    spec.id = 10 + q;
    spec.policy = PolicyKind::kRoundRobin;
    spec.join_half_width_s = widths[q];
    config.queries.push_back(spec);
  }
  ExperimentResult result;
  aggregate_node_reports({}, &result);
  verify_against_schedule(config, &result);

  const auto schedule = ArrivalSchedule::build(config);
  ASSERT_EQ(result.per_query.size(), 3u);
  std::uint64_t exact = 0;
  for (std::size_t q = 0; q < 3; ++q) {
    SCOPED_TRACE(q);
    const QueryResult& query = result.per_query[q];
    EXPECT_EQ(query.query_id, config.queries[q].id);
    EXPECT_EQ(query.exact_pairs, exact_pairs(schedule, widths[q]));
    EXPECT_EQ(query.reported_pairs, 0u);
    EXPECT_EQ(query.false_pairs, 0u);
    exact += query.exact_pairs;
  }
  EXPECT_LT(result.per_query[0].exact_pairs, result.per_query[2].exact_pairs);
  EXPECT_EQ(result.exact_pairs, exact);
  EXPECT_EQ(result.reported_pairs, 0u);
  EXPECT_TRUE(result.pairs.empty());
}

}  // namespace
}  // namespace dsjoin::core
