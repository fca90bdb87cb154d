// Layer spans for the traced benchmark driver (pb_trace).
//
// A span is opened around each public call into a layer and closed when
// the call returns. Spans nest: a layer's self time is its span's duration
// minus the time covered by spans opened inside it, so the self times of
// all layers partition the traced wall time and can be summed.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

namespace perfbench {

enum class Layer : int {
  kSetup,          // validate_config + constructing the system
  kDispatch,       // net::EventQueue dispatch loop
  kEmit,           // core::ArrivalSource / ArrivalSchedule::build
  kObserve,        // core::ExactJoinOracle::observe
  kIngest,         // core::NodeHost::ingest
  kDeliver,        // core::NodeHost::deliver
  kSend,           // net::Transport::send
  kSummaryFeed,    // summary sink: decode + Node::queue_summary
  kRecord,         // core::MetricsCollector::record_pair
  kReport,         // result assembly (pair snapshots, union, counters)
  kRuntime,        // multiprocess: runtime::run_experiment (fork, admission,
                   // run, drain, aggregation, verification, reaping)
  kCount
};

class Tracer {
 public:
  /// A forked daemon inherits the tracer, with the parent's spans open;
  /// it records nothing, so that its wrapped record_pair calls cost the
  /// daemon no clock reads (trace.cpp disables it in every fork child).
  void disable() { enabled_ = false; }

  void begin(Layer layer) {
    if (!enabled_) return;
    frames_[depth_++] = Frame{layer, now_ns(), 0};
  }
  void end() {
    if (!enabled_) return;
    const Frame frame = frames_[--depth_];
    const std::int64_t span = now_ns() - frame.start_ns;
    self_ns_[static_cast<int>(frame.layer)] += span - frame.child_ns;
    ++calls_[static_cast<int>(frame.layer)];
    if (depth_ > 0) frames_[depth_ - 1].child_ns += span;
  }

  double self_s(Layer layer) const {
    return static_cast<double>(self_ns_[static_cast<int>(layer)]) * 1e-9;
  }
  std::uint64_t calls(Layer layer) const {
    return calls_[static_cast<int>(layer)];
  }
  double total_self_s() const {
    std::int64_t total = 0;
    for (const std::int64_t ns : self_ns_) total += ns;
    return static_cast<double>(total) * 1e-9;
  }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  struct Frame {
    Layer layer;
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  // Nesting is shallow (dispatch > ingest > send > summary feed > record).
  std::array<Frame, 16> frames_{};
  int depth_ = 0;
  bool enabled_ = true;
  std::array<std::int64_t, static_cast<int>(Layer::kCount)> self_ns_{};
  std::array<std::uint64_t, static_cast<int>(Layer::kCount)> calls_{};
};

/// The process-wide tracer (the record_pair wrapper has no other way in).
Tracer& tracer();

class Span {
 public:
  explicit Span(Layer layer) { tracer().begin(layer); }
  ~Span() { tracer().end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

}  // namespace perfbench
