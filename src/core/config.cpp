#include "dsjoin/core/config.hpp"

#include <set>
#include <stdexcept>

#include "dsjoin/common/strformat.hpp"

namespace dsjoin::core {

namespace {

// The policy enum travels as its name, not its ordinal, so a config is
// readable in logs and the encoding survives enum reordering.

void serialize_wan(const net::WanProfile& wan, common::BufferWriter& out) {
  out.write_f64(wan.latency_min_s);
  out.write_f64(wan.latency_max_s);
  out.write_f64(wan.bandwidth_bps);
  out.write_u8(static_cast<std::uint8_t>(wan.scope));
  out.write_u8(wan.pause_burst_shaping ? 1 : 0);
  out.write_u8(wan.unlimited_bandwidth ? 1 : 0);
  out.write_f64(wan.drop_probability);
  out.write_f64(wan.corrupt_probability);
}

common::Result<net::WanProfile> deserialize_wan(common::BufferReader& in) {
  net::WanProfile wan;
  auto lat_min = in.read_f64();
  if (!lat_min) return lat_min.status();
  auto lat_max = in.read_f64();
  if (!lat_max) return lat_max.status();
  auto bps = in.read_f64();
  if (!bps) return bps.status();
  auto scope = in.read_u8();
  if (!scope) return scope.status();
  if (scope.value() > 1) {
    return common::Status(common::ErrorCode::kDataLoss, "bad bandwidth scope");
  }
  auto pause = in.read_u8();
  if (!pause) return pause.status();
  auto unlimited = in.read_u8();
  if (!unlimited) return unlimited.status();
  auto drop = in.read_f64();
  if (!drop) return drop.status();
  auto corrupt = in.read_f64();
  if (!corrupt) return corrupt.status();
  wan.latency_min_s = lat_min.value();
  wan.latency_max_s = lat_max.value();
  wan.bandwidth_bps = bps.value();
  wan.scope = static_cast<net::WanProfile::BandwidthScope>(scope.value());
  wan.pause_burst_shaping = pause.value() != 0;
  wan.unlimited_bandwidth = unlimited.value() != 0;
  wan.drop_probability = drop.value();
  wan.corrupt_probability = corrupt.value();
  return wan;
}

}  // namespace

SummaryFamily family_of(PolicyKind kind) noexcept {
  switch (kind) {
    case PolicyKind::kBase:
    case PolicyKind::kRoundRobin:
      return SummaryFamily::kNone;
    case PolicyKind::kDft:
    case PolicyKind::kDftt:
      return SummaryFamily::kCoeff;
    case PolicyKind::kBloom:
      return SummaryFamily::kBloom;
    case PolicyKind::kSketch:
      return SummaryFamily::kSketch;
    case PolicyKind::kSpectrum:
      return SummaryFamily::kSpectrum;
    case PolicyKind::kSample:
      return SummaryFamily::kSample;
  }
  return SummaryFamily::kNone;
}

std::vector<QuerySpec> effective_queries(const SystemConfig& config) {
  if (!config.queries.empty()) return config.queries;
  QuerySpec spec;
  spec.id = 0;
  spec.policy = config.policy;
  spec.throttle = config.throttle;
  spec.join_half_width_s = config.join_half_width_s;
  return {spec};
}

bool multi_query_mode(const SystemConfig& config) {
  return config.queries.size() > 1;
}

SystemConfig query_config(const SystemConfig& base, const QuerySpec& spec) {
  SystemConfig view = base;
  view.policy = spec.policy;
  view.throttle = spec.throttle;
  view.join_half_width_s = spec.join_half_width_s;
  view.queries.clear();
  return view;
}

double max_join_half_width(const SystemConfig& config) {
  double width = 0.0;
  for (const auto& spec : effective_queries(config)) {
    width = std::max(width, spec.join_half_width_s);
  }
  return width;
}

common::Status validate_config(const SystemConfig& config) {
  using common::ErrorCode;
  using common::str_format;
  auto fail = [](std::string message) {
    return common::Status(ErrorCode::kInvalidArgument, std::move(message));
  };
  if (config.nodes < 2) {
    return fail(str_format("nodes must be >= 2, got %u", config.nodes));
  }
  if (config.coalesce_frames < 1 || config.coalesce_frames > 0xFFFF) {
    return fail(str_format("coalesce-frames must be in [1, 65535], got %u",
                           config.coalesce_frames));
  }
  if (config.coalesce_bytes < 1 || config.coalesce_bytes > (1u << 24)) {
    return fail(str_format("coalesce-bytes must be in [1, %d], got %u",
                           1 << 24, config.coalesce_bytes));
  }
  if (!std::isfinite(config.summary_sync_epoch_s) ||
      !(config.summary_sync_epoch_s > 0.0) ||
      config.summary_sync_epoch_s > 3600.0) {
    return fail(str_format("summary-sync-epoch must be in (0, 3600], got %g",
                           config.summary_sync_epoch_s));
  }
  if (config.summary_quant_bits != 0 && config.summary_quant_bits != 8 &&
      config.summary_quant_bits != 16) {
    return fail(str_format("quant-bits must be 0, 8 or 16, got %u",
                           config.summary_quant_bits));
  }
  // The sample-summary wire format counts keys in a u16 and thinning can
  // briefly hold ~2x capacity, so the live sample must stay under 32768.
  if (config.sample_capacity > (1u << 15)) {
    return fail(str_format("sample-capacity must be in [0, %d], got %u",
                           1 << 15, config.sample_capacity));
  }
  if (config.sample_strata == 0 || config.sample_strata > 4096) {
    return fail(str_format("sample-strata must be in [1, 4096], got %u",
                           config.sample_strata));
  }
  if (!std::isfinite(config.throttle) || config.throttle < 0.0 ||
      config.throttle > 1.0) {
    return fail(str_format("throttle must be in [0, 1], got %g",
                           config.throttle));
  }
  if (!std::isfinite(config.join_half_width_s) ||
      !(config.join_half_width_s > 0.0)) {
    return fail(str_format("half-width must be > 0, got %g",
                           config.join_half_width_s));
  }
  if (config.queries.size() > kMaxQueries) {
    return fail(str_format("at most %zu queries per run, got %zu",
                           kMaxQueries, config.queries.size()));
  }
  std::set<std::uint32_t> ids;
  for (const auto& spec : config.queries) {
    if (!ids.insert(spec.id).second) {
      return fail(str_format("duplicate query id %u", spec.id));
    }
    if (!std::isfinite(spec.throttle) || spec.throttle < 0.0 ||
        spec.throttle > 1.0) {
      return fail(str_format("query %u: throttle must be in [0, 1], got %g",
                             spec.id, spec.throttle));
    }
    if (!std::isfinite(spec.join_half_width_s) ||
        !(spec.join_half_width_s > 0.0)) {
      return fail(str_format("query %u: half-width must be > 0, got %g",
                             spec.id, spec.join_half_width_s));
    }
  }
  return common::Status::ok();
}

common::Result<std::vector<QuerySpec>> parse_queries(
    const std::string& text, const SystemConfig& base) {
  std::vector<QuerySpec> specs;
  if (text.empty()) return specs;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t end = std::min(text.find(';', pos), text.size());
    std::string item = text.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) {
      return common::Status(common::ErrorCode::kInvalidArgument,
                            "empty query spec in --queries");
    }
    QuerySpec spec;
    spec.id = static_cast<std::uint32_t>(specs.size());
    spec.throttle = base.throttle;
    spec.join_half_width_s = base.join_half_width_s;
    // POLICY[:throttle[:half_width_s]]
    const std::size_t c1 = item.find(':');
    const std::string policy_name = item.substr(0, c1);
    try {
      spec.policy = policy_from_string(policy_name);
    } catch (const std::invalid_argument&) {
      return common::Status(
          common::ErrorCode::kInvalidArgument,
          "unknown policy '" + policy_name + "' in --queries (expected one of "
          + policy_names_csv() + ")");
    }
    try {
      if (c1 != std::string::npos) {
        const std::size_t c2 = item.find(':', c1 + 1);
        const std::string throttle_text =
            item.substr(c1 + 1, c2 == std::string::npos ? std::string::npos
                                                        : c2 - c1 - 1);
        if (!throttle_text.empty()) spec.throttle = std::stod(throttle_text);
        if (c2 != std::string::npos) {
          const std::string width_text = item.substr(c2 + 1);
          if (!width_text.empty()) {
            spec.join_half_width_s = std::stod(width_text);
          }
        }
      }
    } catch (const std::exception&) {
      return common::Status(common::ErrorCode::kInvalidArgument,
                            "malformed query spec '" + item +
                                "' in --queries (want POLICY[:throttle"
                                "[:half_width_s]])");
    }
    specs.push_back(spec);
    if (end == text.size()) break;
  }
  return specs;
}

void serialize_config(const SystemConfig& config, common::BufferWriter& out) {
  out.write_u32(config.nodes);
  out.write_u64(config.seed);
  serialize_wan(config.wan, out);
  out.write_string(config.workload);
  out.write_u32(config.regions);
  out.write_f64(config.locality);
  out.write_f64(config.noise);
  out.write_i64(config.domain);
  out.write_f64(config.arrivals_per_second);
  out.write_u64(config.tuples_per_node);
  out.write_f64(config.join_half_width_s);
  out.write_f64(config.retention_margin_s);
  out.write_u32(config.dft_window);
  out.write_f64(config.kappa);
  out.write_u32(config.summary_epoch_tuples);
  out.write_f64(config.summary_sync_epoch_s);
  out.write_u32(config.stale_flush_epochs);
  out.write_u32(config.piggyback_max_coeffs);
  out.write_i64(config.membership_tolerance);
  out.write_f64(config.coeff_delta_threshold);
  out.write_string(to_string(config.policy));
  out.write_f64(config.throttle);
  out.write_f64(config.uniform_detection_cv);
  out.write_f64(config.max_backlog_s);
  out.write_u32(config.coalesce_frames);
  out.write_u32(config.coalesce_bytes);
  out.write_f64(config.coalesce_linger_s);
  out.write_u32(config.worker_threads);
  out.write_u8(config.oracle_enabled ? 1 : 0);
  out.write_f64(config.online_target_eps);
  out.write_f64(config.audit_probability);
  out.write_f64(config.controller_gain);
  out.write_u32(config.controller_interval_tuples);
  out.write_u32(config.summary_quant_bits);
  out.write_u32(config.sample_capacity);
  out.write_u32(config.sample_strata);
  // Protocol v6: the registered query list (empty = single-query mode).
  out.write_u32(static_cast<std::uint32_t>(config.queries.size()));
  for (const auto& spec : config.queries) {
    out.write_u32(spec.id);
    out.write_string(to_string(spec.policy));
    out.write_f64(spec.throttle);
    out.write_f64(spec.join_half_width_s);
  }
}

common::Result<SystemConfig> deserialize_config(common::BufferReader& in) {
  SystemConfig config;
#define DSJOIN_READ(field, reader)          \
  do {                                      \
    auto r = in.reader();                   \
    if (!r) return r.status();              \
    config.field = std::move(r).value();    \
  } while (0)
  DSJOIN_READ(nodes, read_u32);
  DSJOIN_READ(seed, read_u64);
  {
    auto wan = deserialize_wan(in);
    if (!wan) return wan.status();
    config.wan = wan.value();
  }
  DSJOIN_READ(workload, read_string);
  DSJOIN_READ(regions, read_u32);
  DSJOIN_READ(locality, read_f64);
  DSJOIN_READ(noise, read_f64);
  DSJOIN_READ(domain, read_i64);
  DSJOIN_READ(arrivals_per_second, read_f64);
  DSJOIN_READ(tuples_per_node, read_u64);
  DSJOIN_READ(join_half_width_s, read_f64);
  DSJOIN_READ(retention_margin_s, read_f64);
  DSJOIN_READ(dft_window, read_u32);
  DSJOIN_READ(kappa, read_f64);
  DSJOIN_READ(summary_epoch_tuples, read_u32);
  DSJOIN_READ(summary_sync_epoch_s, read_f64);
  if (!std::isfinite(config.summary_sync_epoch_s) ||
      config.summary_sync_epoch_s <= 0.0) {
    return common::Status(common::ErrorCode::kDataLoss,
                          "summary sync epoch out of range");
  }
  DSJOIN_READ(stale_flush_epochs, read_u32);
  DSJOIN_READ(piggyback_max_coeffs, read_u32);
  DSJOIN_READ(membership_tolerance, read_i64);
  DSJOIN_READ(coeff_delta_threshold, read_f64);
  {
    auto policy = in.read_string();
    if (!policy) return policy.status();
    try {
      config.policy = policy_from_string(policy.value());
    } catch (const std::invalid_argument&) {
      return common::Status(common::ErrorCode::kDataLoss,
                            "unknown policy: " + policy.value());
    }
  }
  DSJOIN_READ(throttle, read_f64);
  DSJOIN_READ(uniform_detection_cv, read_f64);
  DSJOIN_READ(max_backlog_s, read_f64);
  DSJOIN_READ(coalesce_frames, read_u32);
  DSJOIN_READ(coalesce_bytes, read_u32);
  DSJOIN_READ(coalesce_linger_s, read_f64);
  DSJOIN_READ(worker_threads, read_u32);
  {
    auto oracle = in.read_u8();
    if (!oracle) return oracle.status();
    config.oracle_enabled = oracle.value() != 0;
  }
  DSJOIN_READ(online_target_eps, read_f64);
  DSJOIN_READ(audit_probability, read_f64);
  DSJOIN_READ(controller_gain, read_f64);
  DSJOIN_READ(controller_interval_tuples, read_u32);
  DSJOIN_READ(summary_quant_bits, read_u32);
  if (config.summary_quant_bits != 0 && config.summary_quant_bits != 8 &&
      config.summary_quant_bits != 16) {
    return common::Status(common::ErrorCode::kDataLoss,
                          "summary quant bits must be 0, 8 or 16");
  }
  DSJOIN_READ(sample_capacity, read_u32);
  // The sample-summary wire format counts keys in a u16 and thinning can
  // briefly hold ~2x capacity, so the live sample must stay under 32768.
  if (config.sample_capacity > (1u << 15)) {
    return common::Status(common::ErrorCode::kDataLoss,
                          "sample capacity out of range");
  }
  DSJOIN_READ(sample_strata, read_u32);
  if (config.sample_strata == 0 || config.sample_strata > 4096) {
    return common::Status(common::ErrorCode::kDataLoss,
                          "sample strata must be in [1, 4096]");
  }
  {
    auto count = in.read_u32();
    if (!count) return count.status();
    // A query is at least 24 wire bytes (id, policy length, two f64s).
    if (count.value() > kMaxQueries || count.value() > in.remaining() / 24) {
      return common::Status(common::ErrorCode::kDataLoss,
                            "query count out of range");
    }
    config.queries.reserve(count.value());
    for (std::uint32_t i = 0; i < count.value(); ++i) {
      QuerySpec spec;
      auto id = in.read_u32();
      if (!id) return id.status();
      spec.id = id.value();
      auto policy = in.read_string();
      if (!policy) return policy.status();
      try {
        spec.policy = policy_from_string(policy.value());
      } catch (const std::invalid_argument&) {
        return common::Status(common::ErrorCode::kDataLoss,
                              "unknown query policy: " + policy.value());
      }
      auto throttle = in.read_f64();
      if (!throttle) return throttle.status();
      spec.throttle = throttle.value();
      auto width = in.read_f64();
      if (!width) return width.status();
      spec.join_half_width_s = width.value();
      config.queries.push_back(spec);
    }
  }
#undef DSJOIN_READ
  // One shared validity gate for everything the field-level checks above
  // do not cover (query ranges, throttle bounds, node count): a config
  // that decodes but fails validation is corrupt from the wire's view.
  if (auto valid = validate_config(config); !valid.is_ok()) {
    return common::Status(common::ErrorCode::kDataLoss, valid.message());
  }
  return config;
}

}  // namespace dsjoin::core
