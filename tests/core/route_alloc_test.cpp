// Steady-state route() allocates nothing: every policy routes out of
// scratch it owns. The global allocation functions are replaced in this
// test binary so that allocations can be counted inside a measured scope
// (on the measuring thread only).
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "dsjoin/common/rng.hpp"
#include "dsjoin/core/policy.hpp"

namespace {
thread_local bool tls_counting = false;
thread_local std::size_t tls_allocations = 0;

void* counted_alloc(std::size_t size) {
  if (tls_counting) ++tls_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dsjoin::core {
namespace {

/// Counts operator new calls made by this thread while in scope.
class CountAllocations {
 public:
  CountAllocations() {
    tls_allocations = 0;
    tls_counting = true;
  }
  ~CountAllocations() { tls_counting = false; }
  std::size_t count() const { return tls_allocations; }
};

stream::Tuple make_tuple(std::uint64_t id, std::int64_t key,
                         stream::StreamSide side, double ts,
                         net::NodeId origin) {
  stream::Tuple t;
  t.id = id;
  t.key = key;
  t.side = side;
  t.timestamp = ts;
  t.origin = origin;
  return t;
}

class RouteAllocation : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(RouteAllocation, SteadyStateRouteAllocatesNothing) {
  SystemConfig config;
  config.policy = GetParam();
  config.nodes = 5;
  config.seed = 3;
  config.dft_window = 256;
  config.kappa = 16.0;
  config.summary_epoch_tuples = 32;
  config.throttle = 0.5;
  config.membership_tolerance = 4;

  const auto router = RoutingPolicy::create(config, 0);
  std::vector<std::unique_ptr<RoutingPolicy>> peers;
  for (net::NodeId j = 1; j < config.nodes; ++j) {
    peers.push_back(RoutingPolicy::create(config, j));
  }
  common::Xoshiro256 rng(17);
  std::uint64_t id = 1;
  double now = 0.0;
  auto key_near = [&](net::NodeId node) {
    return static_cast<std::int64_t>(1000 * (node % 3) + rng.next_below(40));
  };
  // Warm-up: every node ingests both sides; peers' summaries (standalone
  // and piggybacked) reach the router, so every scoring path is seeded.
  for (int round = 0; round < 600; ++round) {
    now += 0.02;
    for (net::NodeId j = 1; j < config.nodes; ++j) {
      auto& peer = *peers[j - 1];
      for (const auto side : {stream::StreamSide::kR, stream::StreamSide::kS}) {
        const auto t = make_tuple(id++, key_near(j), side, now, j);
        peer.observe_local(t);
        (void)peer.route(t);
      }
      for (auto& summary : peer.maintenance(now)) {
        if (summary.peer == 0) router->on_summary(j, summary.block);
      }
      const auto piggy = peer.piggyback_for(0);
      if (!piggy.empty()) router->on_summary(j, piggy);
    }
    for (const auto side : {stream::StreamSide::kR, stream::StreamSide::kS}) {
      const auto t = make_tuple(id++, key_near(0), side, now, 0);
      router->observe_local(t);
      (void)router->route(t);
    }
    (void)router->maintenance(now);
  }

  std::size_t routed = 0;
  std::size_t allocations = 0;
  for (int i = 0; i < 400; ++i) {
    const auto side = i % 2 == 0 ? stream::StreamSide::kR : stream::StreamSide::kS;
    const auto t = make_tuple(id++, key_near(static_cast<net::NodeId>(i % 5)),
                              side, now, 0);
    CountAllocations count;
    routed += router->route(t).size();
    allocations += count.count();
  }
  EXPECT_EQ(allocations, 0u) << router->name();
  EXPECT_GT(routed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, RouteAllocation,
    ::testing::Values(PolicyKind::kBase, PolicyKind::kRoundRobin,
                      PolicyKind::kDft, PolicyKind::kDftt, PolicyKind::kBloom,
                      PolicyKind::kSketch, PolicyKind::kSpectrum,
                      PolicyKind::kSample),
    [](const auto& info) { return std::string(to_string(info.param)); });

}  // namespace
}  // namespace dsjoin::core
