#include "dsjoin/runtime/control.hpp"

namespace dsjoin::runtime {

// Reads one wire field into `target`; on failure the enclosing decoder
// returns the reader's status.
#define DSJOIN_READ(target, reader) \
  do {                              \
    auto r = in.reader();           \
    if (!r) return r.status();      \
    target = std::move(r).value();  \
  } while (0)

namespace {

void serialize_traffic(const net::TrafficCounters& traffic,
                       common::BufferWriter& out) {
  for (auto f : traffic.frames_by_kind) out.write_u64(f);
  for (auto b : traffic.bytes_by_kind) out.write_u64(b);
  out.write_u64(traffic.piggyback_bytes);
  out.write_u64(traffic.wire_records);
  out.write_u64(traffic.header_bytes_saved);
}

common::Result<net::TrafficCounters> deserialize_traffic(
    common::BufferReader& in) {
  net::TrafficCounters traffic;
  for (auto& f : traffic.frames_by_kind) DSJOIN_READ(f, read_u64);
  for (auto& b : traffic.bytes_by_kind) DSJOIN_READ(b, read_u64);
  DSJOIN_READ(traffic.piggyback_bytes, read_u64);
  DSJOIN_READ(traffic.wire_records, read_u64);
  DSJOIN_READ(traffic.header_bytes_saved, read_u64);
  return traffic;
}

}  // namespace

const char* to_string(ControlType type) noexcept {
  switch (type) {
    case ControlType::kHello: return "HELLO";
    case ControlType::kConfig: return "CONFIG";
    case ControlType::kStart: return "START";
    case ControlType::kHeartbeat: return "HEARTBEAT";
    case ControlType::kMetricsReport: return "METRICS_REPORT";
    case ControlType::kDrain: return "DRAIN";
    case ControlType::kBye: return "BYE";
  }
  return "UNKNOWN";
}

const char* to_string(DaemonState state) noexcept {
  switch (state) {
    case DaemonState::kJoining: return "JOINING";
    case DaemonState::kMeshed: return "MESHED";
    case DaemonState::kRunning: return "RUNNING";
    case DaemonState::kDone: return "DONE";
    case DaemonState::kDraining: return "DRAINING";
  }
  return "UNKNOWN";
}

void serialize_endpoint(const net::Endpoint& endpoint,
                        common::BufferWriter& out) {
  out.write_string(endpoint.host);
  out.write_u16(endpoint.port);
}

common::Result<net::Endpoint> deserialize_endpoint(common::BufferReader& in) {
  net::Endpoint endpoint;
  auto host = in.read_string();
  if (!host) return host.status();
  auto port = in.read_u16();
  if (!port) return port.status();
  endpoint.host = std::move(host).value();
  endpoint.port = port.value();
  return endpoint;
}

std::vector<std::uint8_t> HelloMsg::encode() const {
  common::BufferWriter out(32);
  out.write_u32(protocol);
  serialize_endpoint(data_endpoint, out);
  return std::move(out).take();
}

common::Result<HelloMsg> HelloMsg::decode(std::span<const std::uint8_t> bytes) {
  common::BufferReader in(bytes);
  HelloMsg msg;
  auto protocol = in.read_u32();
  if (!protocol) return protocol.status();
  msg.protocol = protocol.value();
  auto endpoint = deserialize_endpoint(in);
  if (!endpoint) return endpoint.status();
  msg.data_endpoint = std::move(endpoint).value();
  return msg;
}

std::vector<std::uint8_t> ConfigMsg::encode() const {
  common::BufferWriter out(512);
  out.write_u32(node_id);
  core::serialize_config(config, out);
  out.write_u32(static_cast<std::uint32_t>(peers.size()));
  for (const auto& peer : peers) serialize_endpoint(peer, out);
  out.write_f64(heartbeat_period_s);
  out.write_f64(mesh_timeout_s);
  return std::move(out).take();
}

common::Result<ConfigMsg> ConfigMsg::decode(
    std::span<const std::uint8_t> bytes) {
  common::BufferReader in(bytes);
  ConfigMsg msg;
  auto node_id = in.read_u32();
  if (!node_id) return node_id.status();
  msg.node_id = node_id.value();
  auto config = core::deserialize_config(in);
  if (!config) return config.status();
  msg.config = std::move(config).value();
  auto count = in.read_u32();
  if (!count) return count.status();
  // An endpoint is at least 6 wire bytes (u32 host length, u16 port).
  if (count.value() > 1024 || count.value() > in.remaining() / 6) {
    return common::Status(common::ErrorCode::kDataLoss,
                          "implausible peer count");
  }
  msg.peers.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto endpoint = deserialize_endpoint(in);
    if (!endpoint) return endpoint.status();
    msg.peers.push_back(std::move(endpoint).value());
  }
  auto heartbeat = in.read_f64();
  if (!heartbeat) return heartbeat.status();
  msg.heartbeat_period_s = heartbeat.value();
  auto mesh_timeout = in.read_f64();
  if (!mesh_timeout) return mesh_timeout.status();
  msg.mesh_timeout_s = mesh_timeout.value();
  return msg;
}

std::vector<std::uint8_t> HeartbeatMsg::encode() const {
  common::BufferWriter out(24);
  out.write_u32(node_id);
  out.write_u8(static_cast<std::uint8_t>(state));
  out.write_u64(local_tuples);
  out.write_u64(pairs_discovered);
  return std::move(out).take();
}

common::Result<HeartbeatMsg> HeartbeatMsg::decode(
    std::span<const std::uint8_t> bytes) {
  common::BufferReader in(bytes);
  HeartbeatMsg msg;
  auto node_id = in.read_u32();
  if (!node_id) return node_id.status();
  msg.node_id = node_id.value();
  auto state = in.read_u8();
  if (!state) return state.status();
  if (state.value() > static_cast<std::uint8_t>(DaemonState::kDraining)) {
    return common::Status(common::ErrorCode::kDataLoss, "bad daemon state");
  }
  msg.state = static_cast<DaemonState>(state.value());
  auto local = in.read_u64();
  if (!local) return local.status();
  msg.local_tuples = local.value();
  auto pairs = in.read_u64();
  if (!pairs) return pairs.status();
  msg.pairs_discovered = pairs.value();
  return msg;
}

std::vector<std::uint8_t> encode_metrics_report(
    const core::NodeReport& report) {
  std::size_t pairs = 0;
  for (const auto& query : report.queries) pairs += query.pairs.size();
  common::BufferWriter out(128 + report.queries.size() * 64 + pairs * 16);
  out.write_u32(report.node_id);
  out.write_u64(report.local_tuples);
  out.write_u64(report.decode_failures);
  out.write_u64(report.late_summaries);
  serialize_traffic(report.traffic, out);
  out.write_u32(static_cast<std::uint32_t>(report.queries.size()));
  for (const auto& query : report.queries) {
    out.write_u32(query.query_id);
    out.write_u64(query.received_tuples);
    out.write_u64(query.forwarded_tuples);
    out.write_u64(query.result_frames);
    out.write_u64(query.summary_frames);
    out.write_f64(query.predicted_missed_mass);
    out.write_f64(query.predicted_total_mass);
    out.write_u64(query.pairs.size());
    for (const auto& pair : query.pairs) {
      out.write_u64(pair.r_id);
      out.write_u64(pair.s_id);
    }
  }
  return std::move(out).take();
}

common::Result<core::NodeReport> decode_metrics_report(
    std::span<const std::uint8_t> bytes) {
  common::BufferReader in(bytes);
  core::NodeReport report;
  DSJOIN_READ(report.node_id, read_u32);
  DSJOIN_READ(report.local_tuples, read_u64);
  DSJOIN_READ(report.decode_failures, read_u64);
  DSJOIN_READ(report.late_summaries, read_u64);
  auto traffic = deserialize_traffic(in);
  if (!traffic) return traffic.status();
  report.traffic = traffic.value();
  std::uint32_t query_count = 0;
  DSJOIN_READ(query_count, read_u32);
  if (query_count == 0 || query_count > core::kMaxQueries) {
    return common::Status(common::ErrorCode::kDataLoss,
                          "query section count out of range");
  }
  report.queries.reserve(query_count);
  for (std::uint32_t q = 0; q < query_count; ++q) {
    core::QueryNodeReport& slice = report.queries.emplace_back();
    DSJOIN_READ(slice.query_id, read_u32);
    DSJOIN_READ(slice.received_tuples, read_u64);
    DSJOIN_READ(slice.forwarded_tuples, read_u64);
    DSJOIN_READ(slice.result_frames, read_u64);
    DSJOIN_READ(slice.summary_frames, read_u64);
    DSJOIN_READ(slice.predicted_missed_mass, read_f64);
    DSJOIN_READ(slice.predicted_total_mass, read_f64);
    std::uint64_t pair_count = 0;
    DSJOIN_READ(pair_count, read_u64);
    // The last section's pairs end the payload exactly; earlier sections
    // only have to fit in what remains.
    const std::uint64_t fits = in.remaining() / 16;
    const bool last = q + 1 == query_count;
    if (last ? pair_count != fits || in.remaining() % 16 != 0
             : pair_count > fits) {
      return common::Status(common::ErrorCode::kDataLoss,
                            "pair count mismatches payload size");
    }
    slice.pairs.resize(pair_count);
    for (auto& pair : slice.pairs) {
      DSJOIN_READ(pair.r_id, read_u64);
      DSJOIN_READ(pair.s_id, read_u64);
    }
  }
  return report;
}

#undef DSJOIN_READ

std::vector<std::uint8_t> DrainMsg::encode() const {
  common::BufferWriter out(8 + dead_nodes.size() * 4);
  out.write_u32(static_cast<std::uint32_t>(dead_nodes.size()));
  for (auto node : dead_nodes) out.write_u32(node);
  return std::move(out).take();
}

common::Result<DrainMsg> DrainMsg::decode(std::span<const std::uint8_t> bytes) {
  common::BufferReader in(bytes);
  DrainMsg msg;
  auto count = in.read_u32();
  if (!count) return count.status();
  if (std::uint64_t{count.value()} * 4 != in.remaining()) {
    return common::Status(common::ErrorCode::kDataLoss,
                          "dead-node count mismatches payload size");
  }
  msg.dead_nodes.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto node = in.read_u32();
    if (!node) return node.status();
    msg.dead_nodes.push_back(node.value());
  }
  return msg;
}

}  // namespace dsjoin::runtime
