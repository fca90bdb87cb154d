// One benchmark repetition: runs one workload once and prints one JSON
// line of raw measurements on stdout. run.py starts a fresh process per
// repetition and turns the lines into the benchmark's metrics.
//
//   pb_run   --workload sim-dftt --seed 7
//   pb_trace --workload sim-dftt --seed 7 [--audit 1] [--inject-false-pair 1]
//
// pb_trace is the traced twin: the same experiment with a span around
// each public call into a layer (trace.hpp). It also runs the audit.
//
// The workloads (why each exists is in README.md):
//   sim-dftt  simulator, DFTT, ZIPF, 8 nodes, serial driver, in-run oracle
//   sim-mq    simulator, ZIPF, 8 nodes, four queries on one substrate
//   mp-smpl   one forked daemon per node (3) + coordinator, SMPL, ZIPF
//
// With --audit 1 every reported pair is checked against the exact join
// recomputed from the arrivals the run actually ingested (false pairs,
// exact counts); --inject-false-pair 1 plants a pair that must fail it.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "dsjoin/common/log.hpp"
#include "dsjoin/core/config.hpp"
#include "dsjoin/core/experiment.hpp"
#include "dsjoin/core/schedule.hpp"
#include "dsjoin/core/system.hpp"
#include "dsjoin/runtime/engine.hpp"
#include "probe.hpp"

#ifdef PERFBENCH_TRACED
#include "dsjoin/core/wire.hpp"
#include "trace.hpp"
#endif

using namespace dsjoin;

namespace {

using Clock = std::chrono::steady_clock;

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double since(Clock::time_point then) { return seconds(Clock::now() - then); }

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "pb: %s\n", why.c_str());
  std::exit(2);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool audit = false;
  bool inject_false_pair = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    const unsigned long long number = std::strtoull(value.c_str(), &end, 10);
    const bool numeric = !value.empty() && *end == '\0';
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed" && numeric) {
      args.seed = number;
      have_seed = true;
    } else if (flag == "--audit" && numeric) {
      args.audit = number != 0;
    } else if (flag == "--inject-false-pair" && numeric) {
      args.inject_false_pair = number != 0;
    } else {
      die("bad flag or value: " + flag + " " + value);
    }
  }
#ifndef PERFBENCH_TRACED
  if (args.audit || args.inject_false_pair) die("only pb_trace audits");
#endif
  if (argc % 2 != 1 || args.workload.empty() || !have_seed) {
    die("usage: --workload NAME --seed N [--audit 0|1] "
        "[--inject-false-pair 0|1]");
  }
  return args;
}

// --- Workloads -------------------------------------------------------------

struct Workload {
  core::SystemConfig config;
  bool multiprocess = false;
};

Workload make_workload(const Args& args) {
  Workload w;
  core::SystemConfig& c = w.config;
  c.seed = args.seed;
  c.workload = "ZIPF";
  if (args.workload == "sim-dftt") {
    c.nodes = 8;
    c.policy = core::PolicyKind::kDftt;
    c.tuples_per_node = 1500;
  } else if (args.workload == "sim-mq") {
    c.nodes = 8;
    c.tuples_per_node = 3000;
    auto queries = core::parse_queries(
        "SMPL:0.5:10;SKCH:0.5:10;BLOOM:0.5:4;RR:0.5:2", c);
    if (!queries) die("queries: " + queries.status().message());
    c.queries = queries.value();
  } else if (args.workload == "mp-smpl") {
    c.nodes = 3;
    c.policy = core::PolicyKind::kSample;
    c.tuples_per_node = 13000;
    w.multiprocess = true;
  } else {
    die("unknown workload: " + args.workload);
  }
  c.worker_threads = 0;  // serial simulator driver
  return w;
}

// --- Measurements ----------------------------------------------------------

struct Run {
  core::ExperimentResult result;
  double setup_s = 0.0;  // call into the backend -> first arrival ingestible
  double run_s = 0.0;    // the system's run wall time (tuples_per_s base)
  double total_s = 0.0;  // call into the backend -> result in hand
  double verify_s = 0.0;  // multiprocess: aggregation done -> result in hand
};

// FNV-1a over every query's sorted pair set, query-tagged: equal digests
// mean equal pair sets for every registered query.
std::uint64_t pair_digest(const core::ExperimentResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const core::QueryResult& query : result.per_query) {
    mix(query.query_id);
    mix(query.pairs.size());
    for (const auto& pair : query.pairs) {
      mix(pair.r_id);
      mix(pair.s_id);
    }
  }
  return h;
}

// The multiprocess backend, called the way a user calls it. The
// coordinator aggregates the node reports (probe.hpp) right after the
// drain, and takes makespan_s (START -> drain complete) just before that,
// so START = aggregation start - makespan_s. Everything after the
// aggregation (verification against the schedule, reaping the daemons) is
// the verify time.
Run run_mp(const core::SystemConfig& config) {
  runtime::EngineOptions options;
  options.backend = core::Backend::kMultiprocess;
  options.verify = true;
  Run run;
  const auto start = Clock::now();
  {
#ifdef PERFBENCH_TRACED
    perfbench::Span span(perfbench::Layer::kRuntime);
#endif
    run.result = runtime::run_experiment(config, options);
  }
  const auto done = Clock::now();
  run.total_s = seconds(done - start);
  run.run_s = run.result.makespan_s;
  // A run that failed before the drain never aggregates (and is unclean).
  const auto& probe = perfbench::aggregate_probe();
  if (probe.calls == 1) {
    run.setup_s = seconds(probe.start - start) - run.result.makespan_s;
    run.verify_s = seconds(done - probe.end);
  }
  return run;
}

#ifndef PERFBENCH_TRACED

Run run_sim(const core::SystemConfig& config) {
  Run run;
  const auto start = Clock::now();
  if (auto valid = core::validate_config(config); !valid.is_ok()) {
    die("invalid config: " + valid.message());
  }
  core::DspSystem system(config);
  run.setup_s = since(start);
  const auto run_start = Clock::now();
  run.result = system.run();
  run.run_s = since(run_start);
  run.total_s = since(start);
  return run;
}

void print_layers(const Run&, const core::SystemConfig&) {}
void print_audit(const Args&, const core::SystemConfig&, bool,
                 const core::ExperimentResult&) {}

#else  // PERFBENCH_TRACED

using perfbench::Layer;
using perfbench::Span;

/// Transport decorator: a span around every send, forwarding everything.
class TracingTransport final : public net::Transport {
 public:
  explicit TracingTransport(net::Transport& inner) : inner_(inner) {}
  std::size_t node_count() const noexcept override {
    return inner_.node_count();
  }
  void register_handler(net::NodeId node,
                        net::DeliveryHandler handler) override {
    inner_.register_handler(node, std::move(handler));
  }
  common::Status send(net::Frame&& frame) override {
    Span span(Layer::kSend);
    return inner_.send(std::move(frame));
  }
  const net::TrafficCounters& stats() const noexcept override {
    return inner_.stats();
  }
  double send_backlog_seconds(net::NodeId node) const noexcept override {
    return inner_.send_backlog_seconds(node);
  }

 private:
  net::Transport& inner_;
};

/// Layer counters only the traced simulator driver can see.
struct SimCounters {
  std::uint64_t events = 0;
  std::uint64_t max_pending = 0;
  std::uint64_t ingest_calls = 0;
  std::uint64_t delivered_frames = 0;
  std::uint64_t substrate_ops = 0;
  double stall_virtual_s = 0.0;
};

/// DspSystem's serial driver (core/system.cpp, worker_threads = 0)
/// composed from the same public parts, with a span around each call into
/// a layer. It must reproduce DspSystem::run()'s pair sets and frame
/// counts exactly; run.py checks that against the untraced run.
class TracedSim {
 public:
  explicit TracedSim(const core::SystemConfig& config)
      : config_(config), specs_(core::effective_queries(config)),
        source_(config) {
    inner_ = std::make_unique<net::SimTransport>(queue_, config.nodes,
                                                 config.wan, config.seed ^ 0x77);
    transport_ = std::make_unique<TracingTransport>(*inner_);
    inner_->set_summary_sink(
        [this](const net::Frame& frame) { feed_summary(frame); });
    for (const core::QuerySpec& spec : specs_) {
      metrics_.push_back(std::make_unique<core::MetricsCollector>());
      metrics_.back()->set_node_count(config.nodes);
      metric_ptrs_.push_back(metrics_.back().get());
      oracles_.emplace_back(spec.join_half_width_s);
    }
    for (net::NodeId id = 0; id < config.nodes; ++id) {
      hosts_.push_back(std::make_unique<core::NodeHost>(
          config_, id, *transport_,
          std::span<core::MetricsCollector* const>(metric_ptrs_)));
      hosts_.back()->node().set_external_summary_feed(true);
      transport_->register_handler(id, [this, id](net::Frame&& frame) {
        const double now = queue_.now();
        Span span(Layer::kDeliver);
        ++counters_.delivered_frames;
        hosts_[id]->deliver(std::move(frame), now);
      });
    }
  }

  core::ExperimentResult run() {
    for (net::NodeId id = 0; id < config_.nodes; ++id) {
      for (const auto side : {stream::StreamSide::kR, stream::StreamSide::kS}) {
        double gap = 0.0;
        {
          Span span(Layer::kEmit);
          gap = source_.next_gap(id, side);
        }
        schedule_arrival(id, side, gap);
      }
    }
    {
      Span span(Layer::kDispatch);
      while (queue_.run_one()) {
        ++counters_.events;
        counters_.max_pending =
            std::max<std::uint64_t>(counters_.max_pending, queue_.pending());
      }
    }
    Span span(Layer::kReport);
    core::ExperimentResult result;
    result.clean = true;
    result.backend = core::Backend::kSim;
    result.nodes_admitted = config_.nodes;
    result.total_arrivals = source_.total_emitted();
    result.makespan_s = queue_.now();
    result.traffic = inner_->stats();
    for (const auto& host : hosts_) {
      result.decode_failures += host->node().decode_failures();
      result.late_summaries += host->node().late_summaries();
      counters_.substrate_ops += host->node().substrate().ingest_ops();
    }
    result.per_query.resize(specs_.size());
    core::MetricsCollector unioned;
    unioned.set_node_count(config_.nodes);
    for (std::size_t q = 0; q < specs_.size(); ++q) {
      core::QueryResult& query = result.per_query[q];
      query.query_id = specs_[q].id;
      query.exact_pairs = oracles_[q].total_pairs();
      query.reported_pairs = metrics_[q]->distinct_pairs();
      query.pairs = metrics_[q]->pairs();
      for (const auto& pair : query.pairs) unioned.record_pair(pair, 0, 0.0);
      result.exact_pairs += query.exact_pairs;
      result.reported_pairs += query.reported_pairs;
    }
    result.pairs = unioned.pairs();
    core::finalize_derived_metrics(&result);
    return result;
  }

  const SimCounters& counters() const { return counters_; }
  std::vector<stream::Tuple> take_arrivals() { return std::move(arrivals_); }

 private:
  void schedule_arrival(net::NodeId node, stream::StreamSide side, double at) {
    queue_.schedule_at(at, [this, node, side] {
      if (source_.exhausted(node, side)) return;
      const double now = queue_.now();
      if (config_.max_backlog_s > 0.0) {
        const double backlog = inner_->send_backlog_seconds(node);
        if (backlog > config_.max_backlog_s) {
          counters_.stall_virtual_s += backlog - config_.max_backlog_s;
          schedule_arrival(node, side, now + (backlog - config_.max_backlog_s));
          return;
        }
      }
      stream::Tuple tuple;
      {
        Span span(Layer::kEmit);
        tuple = source_.emit(node, side, now);
        arrivals_.push_back(tuple);
      }
      if (config_.oracle_enabled) {
        Span span(Layer::kObserve);
        for (core::ExactJoinOracle& oracle : oracles_) oracle.observe(tuple);
      }
      {
        Span span(Layer::kIngest);
        ++counters_.ingest_calls;
        hosts_[node]->ingest(tuple, now);
      }
      double gap = 0.0;
      {
        Span span(Layer::kEmit);
        gap = source_.next_gap(node, side);
      }
      schedule_arrival(node, side, now + gap);
    });
  }

  // DspSystem::tee_summary: the simulator's virtual-time summary plane.
  void feed_summary(const net::Frame& frame) {
    Span span(Layer::kSummaryFeed);
    if (frame.kind == net::FrameKind::kSummary) {
      auto payload = core::SummaryPayload::decode(frame.payload);
      if (!payload) return;
      hosts_[frame.to]->node().queue_summary(
          frame.from, payload.value().stamp, std::move(payload.value().block));
    } else if (frame.kind == net::FrameKind::kTuple) {
      auto payload = core::TuplePayload::decode(
          frame.payload, core::multi_query_mode(config_));
      if (!payload || payload.value().piggyback.empty()) return;
      hosts_[frame.to]->node().queue_summary(
          frame.from, payload.value().stamp,
          std::move(payload.value().piggyback));
    }
  }

  core::SystemConfig config_;
  std::vector<core::QuerySpec> specs_;
  net::EventQueue queue_;
  std::unique_ptr<net::SimTransport> inner_;
  std::unique_ptr<TracingTransport> transport_;
  std::vector<std::unique_ptr<core::MetricsCollector>> metrics_;
  std::vector<core::MetricsCollector*> metric_ptrs_;
  std::vector<core::ExactJoinOracle> oracles_;
  core::ArrivalSource source_;
  std::vector<std::unique_ptr<core::NodeHost>> hosts_;
  std::vector<stream::Tuple> arrivals_;  // emission (= timestamp) order
  SimCounters counters_;
};

SimCounters g_sim_counters;
core::ArrivalSchedule g_sim_arrivals;  // what the traced simulator ingested

Run run_sim(const core::SystemConfig& config) {
  Run run;
  const auto start = Clock::now();
  std::unique_ptr<TracedSim> system;
  {
    Span span(Layer::kSetup);
    if (auto valid = core::validate_config(config); !valid.is_ok()) {
      die("invalid config: " + valid.message());
    }
    system = std::make_unique<TracedSim>(config);
  }
  run.setup_s = since(start);
  const auto run_start = Clock::now();
  run.result = system->run();
  run.run_s = since(run_start);
  run.total_s = since(start);
  g_sim_counters = system->counters();
  g_sim_arrivals.tuples = system->take_arrivals();
  return run;
}

double cpu_s(const rusage& usage) {
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

void print_layers(const Run& run, const core::SystemConfig& config) {
  const perfbench::Tracer& t = perfbench::tracer();
  const SimCounters& c = g_sim_counters;
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  const double daemon_cpu = cpu_s(children);
  const auto& traffic = run.result.traffic;
  std::printf(
      ",\"layers\":{\"setup_s\":%.9f,\"dispatch_s\":%.9f,\"emit_s\":%.9f,"
      "\"observe_s\":%.9f,\"ingest_s\":%.9f,\"deliver_s\":%.9f,"
      "\"send_s\":%.9f,\"summary_feed_s\":%.9f,\"record_s\":%.9f,"
      "\"report_s\":%.9f,\"runtime_s\":%.9f,\"self_total_s\":%.9f,\"record_calls\":%" PRIu64
      ",\"events\":%" PRIu64 ",\"max_pending\":%" PRIu64
      ",\"ingest_calls\":%" PRIu64 ",\"delivered_frames\":%" PRIu64
      ",\"substrate_ops\":%" PRIu64
      ",\"stall_virtual_s\":%.9f,\"wire_records\":%" PRIu64
      ",\"header_bytes_saved\":%" PRIu64
      ",\"verify_s\":%.9f,\"aggregate_s\":%.9f,\"daemon_cpu_s\":%.6f,"
      "\"coordinator_cpu_s\":%.6f,\"nodes\":%u}",
      t.self_s(Layer::kSetup), t.self_s(Layer::kDispatch),
      t.self_s(Layer::kEmit), t.self_s(Layer::kObserve),
      t.self_s(Layer::kIngest), t.self_s(Layer::kDeliver),
      t.self_s(Layer::kSend), t.self_s(Layer::kSummaryFeed),
      t.self_s(Layer::kRecord), t.self_s(Layer::kReport),
      t.self_s(Layer::kRuntime), t.total_self_s(), t.calls(Layer::kRecord),
      c.events, c.max_pending, c.ingest_calls, c.delivered_frames,
      c.substrate_ops, c.stall_virtual_s,
      traffic.wire_records, traffic.header_bytes_saved, run.verify_s,
      seconds(perfbench::aggregate_probe().end -
              perfbench::aggregate_probe().start),
      daemon_cpu, cpu_s(self), config.nodes);
}


// Independent audit: every reported pair of every query is checked against
// the exact join recomputed from the arrivals the run ingested — recorded
// by the traced simulator driver (backpressure stalls shift arrivals away
// from the materialized schedule), ArrivalSchedule::build for the socket
// backend — and the run's exact counts must equal the recomputation.
struct Audit {
  std::uint64_t false_pairs = 0;
  bool exact_matches = true;
};

Audit audit(const core::SystemConfig& config,
            const core::ArrivalSchedule& arrivals,
            const core::ExperimentResult& result) {
  Audit out;
  const auto specs = core::effective_queries(config);
  if (result.per_query.size() != specs.size()) {
    out.exact_matches = false;
    return out;
  }
  for (std::size_t q = 0; q < specs.size(); ++q) {
    const double width = specs[q].join_half_width_s;
    const auto& query = result.per_query[q];
    out.false_pairs += core::count_false_pairs(arrivals, width, query.pairs);
    out.exact_matches &=
        core::exact_pairs(arrivals, width) == query.exact_pairs;
  }
  return out;
}

void print_audit(const Args& args, const core::SystemConfig& config,
                 bool multiprocess, const core::ExperimentResult& result) {
  if (!args.audit) return;
  const Audit checked =
      multiprocess ? audit(config, core::ArrivalSchedule::build(config), result)
                   : audit(config, g_sim_arrivals, result);
  std::printf(",\"audit\":{\"false_pairs\":%" PRIu64
              ",\"exact_matches\":%s}",
              checked.false_pairs, checked.exact_matches ? "true" : "false");
}

#endif  // PERFBENCH_TRACED

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  common::set_log_level(common::LogLevel::kError);
  const Workload workload = make_workload(args);
  const core::SystemConfig& config = workload.config;

  Run run = workload.multiprocess ? run_mp(config) : run_sim(config);

  // High-water marks before the audit allocates anything.
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);

  core::ExperimentResult& result = run.result;
  if (args.inject_false_pair && !result.per_query.empty()) {
    // Self-test: a tuple never joins itself, so (1, 1) is a false pair.
    auto& pairs = result.per_query.front().pairs;
    pairs.insert(pairs.begin(), stream::ResultPair{1, 1});
    ++result.per_query.front().reported_pairs;
    ++result.reported_pairs;
  }
  const auto& traffic = result.traffic;
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"traced\":%s,"
      "\"clean\":%s,\"arrivals\":%" PRIu64 ",\"setup_s\":%.9f,"
      "\"run_s\":%.9f,\"total_s\":%.9f,\"exact_pairs\":%" PRIu64
      ",\"reported_pairs\":%" PRIu64 ",\"false_pairs\":%" PRIu64
      ",\"decode_failures\":%" PRIu64 ",\"late_summaries\":%" PRIu64
      ",\"nodes_failed\":%u,\"frames\":[%" PRIu64 ",%" PRIu64 ",%" PRIu64
      ",%" PRIu64 "],\"bytes\":%" PRIu64 ",\"digest\":\"%016" PRIx64
      "\",\"maxrss_kb\":%ld,\"children_maxrss_kb\":%ld,\"multiprocess\":%s",
      args.workload.c_str(), args.seed,
#ifdef PERFBENCH_TRACED
      "true",
#else
      "false",
#endif
      result.clean && result.error.empty() ? "true" : "false",
      result.total_arrivals, run.setup_s, run.run_s, run.total_s,
      result.exact_pairs, result.reported_pairs, result.false_pairs,
      result.decode_failures, result.late_summaries, result.nodes_failed,
      traffic.frames(net::FrameKind::kTuple),
      traffic.frames(net::FrameKind::kSummary),
      traffic.frames(net::FrameKind::kResult),
      traffic.frames(net::FrameKind::kControl), traffic.total_bytes(),
      pair_digest(result), self.ru_maxrss, children.ru_maxrss,
      workload.multiprocess ? "true" : "false");
  print_layers(run, config);
  print_audit(args, config, workload.multiprocess, result);
  std::printf("}\n");
  return 0;
}
