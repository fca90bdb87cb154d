#include "dsjoin/runtime/control.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>

#include "dsjoin/common/rng.hpp"
#include "dsjoin/core/metrics.hpp"
#include "dsjoin/core/node_host.hpp"
#include "dsjoin/net/sim_transport.hpp"

// The decode fuzz tests bound the largest single allocation a decoder
// makes, so the global allocation functions are replaced in this test
// binary; only the measuring thread records, and only while watching.
namespace {
thread_local bool tls_watching = false;
thread_local std::size_t tls_largest = 0;

void* watched_alloc(std::size_t size) {
  if (tls_watching && size > tls_largest) tls_largest = size;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return watched_alloc(size); }
void* operator new[](std::size_t size) { return watched_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dsjoin::runtime {
namespace {

TEST(ControlCodec, HelloRoundTrip) {
  HelloMsg msg;
  msg.protocol = kProtocolVersion;
  msg.data_endpoint = {"192.168.7.41", 45123};
  const auto bytes = msg.encode();
  const auto decoded = HelloMsg::decode(bytes);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().protocol, kProtocolVersion);
  EXPECT_EQ(decoded.value().data_endpoint, msg.data_endpoint);
}

TEST(ControlCodec, HelloRejectsTruncation) {
  const auto bytes = HelloMsg{}.encode();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const auto decoded =
        HelloMsg::decode(std::span(bytes.data(), cut));
    EXPECT_FALSE(decoded.is_ok()) << "prefix of " << cut << " bytes decoded";
  }
}

TEST(ControlCodec, ConfigRoundTripCarriesFullSystemConfig) {
  ConfigMsg msg;
  msg.node_id = 3;
  msg.config.nodes = 7;
  msg.config.seed = 0xfeedULL;
  msg.config.workload = "NWRK";
  msg.config.policy = core::PolicyKind::kBloom;
  msg.config.tuples_per_node = 12345;
  msg.config.arrivals_per_second = 33.5;
  msg.config.join_half_width_s = 4.25;
  msg.config.throttle = 0.75;
  msg.config.dft_window = 1024;
  msg.config.kappa = 128.0;
  msg.peers = {{"10.0.0.1", 1111}, {"10.0.0.2", 2222}, {"10.0.0.3", 3333}};
  msg.heartbeat_period_s = 0.5;
  msg.mesh_timeout_s = 12.0;

  const auto bytes = msg.encode();
  const auto decoded = ConfigMsg::decode(bytes);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  const ConfigMsg& got = decoded.value();
  EXPECT_EQ(got.node_id, 3u);
  EXPECT_EQ(got.config.nodes, 7u);
  EXPECT_EQ(got.config.seed, 0xfeedULL);
  EXPECT_EQ(got.config.workload, "NWRK");
  EXPECT_EQ(got.config.policy, core::PolicyKind::kBloom);
  EXPECT_EQ(got.config.tuples_per_node, 12345u);
  EXPECT_DOUBLE_EQ(got.config.arrivals_per_second, 33.5);
  EXPECT_DOUBLE_EQ(got.config.join_half_width_s, 4.25);
  EXPECT_DOUBLE_EQ(got.config.throttle, 0.75);
  EXPECT_EQ(got.config.dft_window, 1024u);
  EXPECT_DOUBLE_EQ(got.config.kappa, 128.0);
  ASSERT_EQ(got.peers.size(), 3u);
  EXPECT_EQ(got.peers[1], msg.peers[1]);
  EXPECT_DOUBLE_EQ(got.heartbeat_period_s, 0.5);
  EXPECT_DOUBLE_EQ(got.mesh_timeout_s, 12.0);
}

TEST(ControlCodec, ConfigRejectsEveryTruncation) {
  ConfigMsg msg;
  msg.peers = {{"127.0.0.1", 1}, {"127.0.0.1", 2}};
  const auto bytes = msg.encode();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const auto decoded = ConfigMsg::decode(std::span(bytes.data(), cut));
    EXPECT_FALSE(decoded.is_ok()) << "prefix of " << cut << " bytes decoded";
  }
}

TEST(ControlCodec, ConfigRejectsImplausiblePeerCount) {
  // Corrupt the peer count to a huge value: the decoder must reject it
  // instead of attempting a giant reserve. The count sits right after the
  // serialized config, so re-encode with zero peers and patch the u32.
  ConfigMsg msg;
  auto bytes = msg.encode();
  // Zero peers: the last 20 bytes are count(4) + two f64 knobs(16).
  ASSERT_GE(bytes.size(), 20u);
  const std::size_t count_at = bytes.size() - 20;
  const std::uint32_t huge = 0xffff0000u;
  std::memcpy(bytes.data() + count_at, &huge, sizeof(huge));
  const auto decoded = ConfigMsg::decode(bytes);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), common::ErrorCode::kDataLoss);
}

TEST(ControlCodec, HeartbeatRoundTrip) {
  HeartbeatMsg msg;
  msg.node_id = 9;
  msg.state = DaemonState::kDraining;
  msg.local_tuples = 4096;
  msg.pairs_discovered = 777;
  const auto decoded = HeartbeatMsg::decode(msg.encode());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().node_id, 9u);
  EXPECT_EQ(decoded.value().state, DaemonState::kDraining);
  EXPECT_EQ(decoded.value().local_tuples, 4096u);
  EXPECT_EQ(decoded.value().pairs_discovered, 777u);
}

TEST(ControlCodec, HeartbeatRejectsOutOfRangeState) {
  HeartbeatMsg msg;
  auto bytes = msg.encode();
  bytes[4] = 0x2a;  // state byte follows the u32 node id
  const auto decoded = HeartbeatMsg::decode(bytes);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), common::ErrorCode::kDataLoss);
}

TEST(ControlCodec, MetricsReportRoundTrip) {
  core::NodeReport report;
  report.node_id = 2;
  report.local_tuples = 500;
  report.decode_failures = 1;
  report.late_summaries = 3;
  net::Frame sample;
  sample.kind = net::FrameKind::kTuple;
  sample.payload.assign(26, 0);
  sample.piggyback_bytes = 12;
  report.traffic.record(sample);
  for (std::uint32_t q = 0; q < 2; ++q) {
    core::QueryNodeReport& slice = report.queries.emplace_back();
    slice.query_id = 5 + q;
    slice.received_tuples = 321 + q;
    slice.forwarded_tuples = 40 + q;
    slice.result_frames = 7 + q;
    slice.summary_frames = 9 + q;
    slice.predicted_missed_mass = 0.25 * q;
    slice.predicted_total_mass = 1.5 + q;
  }
  report.queries[0].pairs = {{1, 2}, {3, 4}, {1000000007, 42}};
  report.queries[1].pairs = {{0, 0}, {~0ULL, ~0ULL}};

  const auto decoded = decode_metrics_report(encode_metrics_report(report));
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  const core::NodeReport& got = decoded.value();
  EXPECT_EQ(got.node_id, 2u);
  EXPECT_EQ(got.local_tuples, 500u);
  EXPECT_EQ(got.decode_failures, 1u);
  EXPECT_EQ(got.late_summaries, 3u);
  EXPECT_EQ(got.traffic.frames(net::FrameKind::kTuple), 1u);
  EXPECT_EQ(got.traffic.piggyback_bytes, 12u);
  ASSERT_EQ(got.queries.size(), 2u);
  for (std::size_t q = 0; q < 2; ++q) {
    SCOPED_TRACE(q);
    const core::QueryNodeReport& want = report.queries[q];
    const core::QueryNodeReport& slice = got.queries[q];
    EXPECT_EQ(slice.query_id, want.query_id);
    EXPECT_EQ(slice.received_tuples, want.received_tuples);
    EXPECT_EQ(slice.forwarded_tuples, want.forwarded_tuples);
    EXPECT_EQ(slice.result_frames, want.result_frames);
    EXPECT_EQ(slice.summary_frames, want.summary_frames);
    EXPECT_EQ(slice.predicted_missed_mass, want.predicted_missed_mass);
    EXPECT_EQ(slice.predicted_total_mass, want.predicted_total_mass);
    EXPECT_EQ(slice.pairs, want.pairs);
  }

  // Every report carries at least one query section.
  report.queries.clear();
  const auto empty = decode_metrics_report(encode_metrics_report(report));
  ASSERT_FALSE(empty.is_ok());
  EXPECT_EQ(empty.status().code(), common::ErrorCode::kDataLoss);
}

TEST(ControlCodec, MetricsReportShipsEachPairOnce) {
  // A single-query report made by NodeHost is a fixed header plus 16
  // bytes per discovered pair: the pair list travels once, in the query
  // section, with no node-level copy.
  core::SystemConfig config;
  config.nodes = 3;
  net::EventQueue queue;
  net::SimTransport transport(queue, config.nodes, net::WanProfile::ideal(), 1);
  auto encoded_size = [&](std::uint64_t pairs) {
    core::MetricsCollector collector;
    collector.set_node_count(config.nodes);
    for (std::uint64_t i = 0; i < pairs; ++i) {
      collector.record_pair({i, 3 * i + 1}, 1, 0.0);
    }
    core::NodeHost host(config, 1, transport, collector);
    const core::NodeReport report = host.report({});
    EXPECT_EQ(report.queries.size(), 1u);
    EXPECT_EQ(report.queries[0].pairs.size(), pairs);
    return encode_metrics_report(report).size();
  };
  // node id, three u64 counters, 11 u64 traffic counters, section count;
  // section: id, four u64 counters, two f64 masses, pair count.
  constexpr std::size_t kHeader = 4 + 3 * 8 + 11 * 8 + 4;
  constexpr std::size_t kSection = 4 + 4 * 8 + 2 * 8 + 8;
  EXPECT_EQ(encoded_size(0), kHeader + kSection);
  for (const std::uint64_t pairs : {1u, 7u, 1000u}) {
    EXPECT_EQ(encoded_size(pairs), kHeader + kSection + 16 * pairs)
        << pairs << " pairs";
  }
}

TEST(ControlCodec, MetricsReportEncodeIsInsertionOrderIndependent) {
  // The wire report must be byte-identical no matter what order a node
  // discovered its pairs in: MetricsCollector::pairs() is pinned to sort
  // ascending by (r_id, s_id), and encode_metrics_report carries that
  // order onto the wire unchanged. This is what makes coordinator-side
  // metrics (and the multiprocess golden runs) reproducible across
  // schedules.
  const std::vector<stream::ResultPair> forward{{1, 9}, {2, 4}, {2, 7}, {5, 1}};
  core::MetricsCollector a;
  core::MetricsCollector b;
  a.set_node_count(1);
  b.set_node_count(1);
  for (const auto& pair : forward) a.record_pair(pair, 0, 0.0);
  for (auto it = forward.rbegin(); it != forward.rend(); ++it) {
    b.record_pair(*it, 0, 0.0);
  }
  EXPECT_EQ(a.pairs(), b.pairs());
  EXPECT_EQ(a.pairs(), forward);  // already in (r_id, s_id) order

  core::NodeReport report_a;
  report_a.queries.emplace_back().pairs = a.pairs();
  core::NodeReport report_b;
  report_b.queries.emplace_back().pairs = b.pairs();
  EXPECT_EQ(encode_metrics_report(report_a), encode_metrics_report(report_b));
}

TEST(ControlCodec, MetricsReportRejectsPairCountMismatch) {
  core::NodeReport report;
  report.queries.emplace_back().pairs = {{1, 2}, {3, 4}};
  const auto honest = encode_metrics_report(report);
  // The last section's pair count is the u64 right before its 2 * 16 pair
  // bytes. Too many, too few (trailing bytes) and a count whose byte size
  // wraps 64 bits all lie about the payload.
  const std::size_t count_at = honest.size() - 2 * 16 - 8;
  for (const std::uint64_t lying : {std::uint64_t{3}, std::uint64_t{1},
                                    (std::uint64_t{1} << 60) + 2}) {
    auto bytes = honest;
    std::memcpy(bytes.data() + count_at, &lying, sizeof(lying));
    const auto decoded = decode_metrics_report(bytes);
    ASSERT_FALSE(decoded.is_ok()) << lying;
    EXPECT_EQ(decoded.status().code(), common::ErrorCode::kDataLoss);
  }

  // Truncating mid-pair must fail the same way, not return fewer pairs.
  auto truncated = honest;
  truncated.resize(truncated.size() - 7);
  EXPECT_FALSE(decode_metrics_report(truncated).is_ok());
}

TEST(ControlCodec, DrainRoundTripAndValidation) {
  DrainMsg msg;
  msg.dead_nodes = {1, 5, 9};
  const auto decoded = DrainMsg::decode(msg.encode());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().dead_nodes, (std::vector<net::NodeId>{1, 5, 9}));

  const auto empty = DrainMsg::decode(DrainMsg{}.encode());
  ASSERT_TRUE(empty.is_ok());
  EXPECT_TRUE(empty.value().dead_nodes.empty());

  auto bytes = msg.encode();
  bytes.push_back(0);  // trailing garbage breaks count * 4 == remaining
  EXPECT_FALSE(DrainMsg::decode(bytes).is_ok());

  // A count whose byte size wraps 32 bits (0x40000003 * 4 == 12 mod 2^32)
  // must not pass for the 12 bytes that follow it.
  bytes = msg.encode();
  const std::uint32_t wrapping = 0x40000003u;
  std::memcpy(bytes.data(), &wrapping, sizeof(wrapping));
  EXPECT_FALSE(DrainMsg::decode(bytes).is_ok());
}

TEST(ControlCodec, EndpointHelpersRoundTrip) {
  common::BufferWriter out(32);
  serialize_endpoint({"host.example", 65535}, out);
  const auto bytes = std::move(out).take();
  common::BufferReader in(bytes);
  const auto decoded = deserialize_endpoint(in);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().host, "host.example");
  EXPECT_EQ(decoded.value().port, 65535);
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(ControlCodec, ToStringCoversAllValues) {
  EXPECT_STREQ(to_string(ControlType::kHello), "HELLO");
  EXPECT_STREQ(to_string(ControlType::kBye), "BYE");
  EXPECT_STREQ(to_string(DaemonState::kJoining), "JOINING");
  EXPECT_STREQ(to_string(DaemonState::kDraining), "DRAINING");
}

// One decoder under fuzz: a name, an honest encoding to mutate, and the
// decode call (true when the bytes were accepted).
struct FuzzTarget {
  std::string name;
  std::vector<std::uint8_t> bytes;
  std::function<bool(std::span<const std::uint8_t>)> decode;
};

core::NodeReport fuzz_report(std::uint32_t queries, std::uint64_t pairs) {
  core::NodeReport report;
  report.node_id = 1;
  report.local_tuples = 1234;
  for (std::uint32_t q = 0; q < queries; ++q) {
    core::QueryNodeReport& slice = report.queries.emplace_back();
    slice.query_id = q;
    slice.received_tuples = 100 + q;
    slice.predicted_total_mass = 2.0;
    for (std::uint64_t i = 0; i < pairs; ++i) {
      slice.pairs.push_back({i * 7 + q, i * 11 + 1});
    }
  }
  return report;
}

std::vector<FuzzTarget> fuzz_targets() {
  std::vector<FuzzTarget> targets;
  HelloMsg hello;
  hello.data_endpoint = {"10.1.2.3", 40000};
  targets.push_back({"HELLO", hello.encode(), [](auto bytes) {
                       return HelloMsg::decode(bytes).is_ok();
                     }});

  ConfigMsg config;
  config.node_id = 2;
  config.config.nodes = 4;
  auto queries = core::parse_queries("SMPL:0.7:4;BLOOM:0.5:2;BASE;RR:0.3:8",
                                     config.config);
  EXPECT_TRUE(queries.is_ok());
  config.config.queries = queries.value();
  config.peers = {{"127.0.0.1", 1}, {"127.0.0.1", 2}, {"host-c", 3},
                  {"host-d", 4}};
  targets.push_back({"CONFIG", config.encode(), [](auto bytes) {
                       return ConfigMsg::decode(bytes).is_ok();
                     }});

  HeartbeatMsg beat;
  beat.node_id = 3;
  beat.state = DaemonState::kRunning;
  beat.local_tuples = 99;
  beat.pairs_discovered = 17;
  targets.push_back({"HEARTBEAT", beat.encode(), [](auto bytes) {
                       return HeartbeatMsg::decode(bytes).is_ok();
                     }});

  auto decode_report = [](auto bytes) {
    return decode_metrics_report(bytes).is_ok();
  };
  targets.push_back(
      {"METRICS_REPORT Q=1", encode_metrics_report(fuzz_report(1, 6)),
       decode_report});
  targets.push_back(
      {"METRICS_REPORT Q=4", encode_metrics_report(fuzz_report(4, 3)),
       decode_report});

  DrainMsg drain;
  drain.dead_nodes = {0, 2, 5};
  targets.push_back({"DRAIN", drain.encode(), [](auto bytes) {
                       return DrainMsg::decode(bytes).is_ok();
                     }});
  return targets;
}

/// Decodes `bytes` and returns the largest single allocation it made.
/// Every element a decoder reserves needs at least a few wire bytes and
/// takes at most 80 in memory; 8 bytes per input byte plus a little for
/// status messages covers every honest reservation.
std::size_t largest_allocation(const FuzzTarget& target,
                               std::span<const std::uint8_t> bytes) {
  tls_largest = 0;
  tls_watching = true;
  EXPECT_NO_THROW(target.decode(bytes)) << target.name;
  tls_watching = false;
  return tls_largest;
}

std::size_t allocation_bound(std::size_t input_bytes) {
  return 8 * input_bytes + 512;
}

TEST(ControlFuzz, HonestEncodingsDecodeAndEveryTruncationIsRejected) {
  for (const FuzzTarget& target : fuzz_targets()) {
    SCOPED_TRACE(target.name);
    ASSERT_TRUE(target.decode(target.bytes));
    for (std::size_t cut = 0; cut < target.bytes.size(); ++cut) {
      EXPECT_FALSE(target.decode(std::span(target.bytes.data(), cut)))
          << "prefix of " << cut << " bytes decoded";
    }
  }
}

TEST(ControlFuzz, MutantsAndGarbageNeverCrashOrOverAllocate) {
  // Control frames carry no checksum, so a mutant may decode; it must
  // never throw, crash or reserve more than its own bytes can hold.
  common::Xoshiro256 rng(0xc0ffee);
  for (const FuzzTarget& target : fuzz_targets()) {
    SCOPED_TRACE(target.name);
    for (int trial = 0; trial < 2000; ++trial) {
      auto bytes = target.bytes;
      const std::size_t at = rng.next_below(bytes.size());
      bytes[at] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
      EXPECT_LE(largest_allocation(target, bytes),
                allocation_bound(bytes.size()))
          << "mutant " << trial << " (byte " << at << ")";
    }
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<std::uint8_t> garbage(rng.next_below(2 * target.bytes.size()));
      for (auto& byte : garbage) {
        byte = static_cast<std::uint8_t>(rng.next_below(256));
      }
      EXPECT_LE(largest_allocation(target, garbage),
                allocation_bound(garbage.size()))
          << "garbage " << trial;
    }
  }
}

}  // namespace
}  // namespace dsjoin::runtime
