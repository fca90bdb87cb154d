// Deterministic WAN emulator (the paper's testbed, Section 6).
//
// The prototype imposed 20-100 ms latency on every message and emulated a
// 90 kbps link by pausing one second per 90 kilobits transmitted. This
// transport reproduces both behaviours on a virtual clock:
//
//  * latency: per-frame draw, uniform in [min, max], from a deterministic
//    per-link generator;
//  * bandwidth: either smooth serialization delay (bits / bps — the default)
//    or the paper's literal pause-per-90kbit burst shaping;
//  * ordering: per-link FIFO is enforced (TCP semantics) even when a later
//    frame draws a smaller latency.
//
// Delivery: each directed link keeps its in-flight frames in a FIFO ring,
// and the event queue holds one event per non-empty link — its head frame,
// under the sequence number the frame reserved when it was sent (so the
// global (time, sequence) order is exactly that of one event per frame).
// When the head is delivered, the link's next frame takes its place.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "dsjoin/common/rng.hpp"
#include "dsjoin/net/event_queue.hpp"
#include "dsjoin/net/transport.hpp"

namespace dsjoin::net {

/// WAN shaping parameters; defaults match the paper's testbed.
struct WanProfile {
  /// Whether the 90 kbps budget is shared by all of a node's outgoing links
  /// (the paper pauses the *workstation* per 90 kilobits transmitted) or
  /// applies independently per directed link.
  enum class BandwidthScope { kPerNode, kPerLink };

  double latency_min_s = 0.020;   ///< 20 ms
  double latency_max_s = 0.100;   ///< 100 ms
  double bandwidth_bps = 90'000;  ///< 90 kbps
  BandwidthScope scope = BandwidthScope::kPerNode;
  /// When true, emulate the paper's literal "pause 1 s every 90 kilobits";
  /// when false, apply smooth serialization delay at the same average rate.
  bool pause_burst_shaping = false;
  /// 0 disables bandwidth shaping entirely (pure-latency network).
  bool unlimited_bandwidth = false;
  /// Failure injection: probability that a frame is silently dropped in
  /// flight. The protocol has no retransmission (the paper's prototype ran
  /// over TCP, but a lossy substrate lets tests measure degradation).
  double drop_probability = 0.0;
  /// Failure injection: probability that a delivered frame's payload is
  /// corrupted (one byte flipped). Decoders must reject such frames.
  double corrupt_probability = 0.0;

  /// A profile with no latency and no shaping (unit tests, logic checks).
  static WanProfile ideal() {
    WanProfile p;
    p.latency_min_s = p.latency_max_s = 0.0;
    p.unlimited_bandwidth = true;
    return p;
  }
};

/// Virtual-time transport over an EventQueue.
class SimTransport final : public Transport {
 public:
  /// @param queue  the experiment's clock; outlives the transport.
  /// @param nodes  number of nodes (addresses 0..nodes-1).
  /// @param profile WAN shaping.
  /// @param seed   seeds the per-link latency generators.
  SimTransport(EventQueue& queue, std::size_t nodes, const WanProfile& profile,
               std::uint64_t seed);

  std::size_t node_count() const noexcept override { return handlers_.size(); }
  void register_handler(NodeId node, DeliveryHandler handler) override;
  common::Status send(Frame&& frame) override;
  const TrafficCounters& stats() const noexcept override { return totals_; }
  double send_backlog_seconds(NodeId node) const noexcept override;

  /// Counters for one directed link.
  const TrafficCounters& link_stats(NodeId from, NodeId to) const;

  /// Frames dropped / corrupted by failure injection so far.
  std::uint64_t dropped_frames() const noexcept { return dropped_; }
  std::uint64_t corrupted_frames() const noexcept { return corrupted_; }

  /// Observes every summary-bearing frame (kSummary, or kTuple with a
  /// piggyback block) the instant its delivery is committed: after the
  /// drop/corrupt draws, before the latency-delayed handler fires. The
  /// simulator's owner uses this as a virtual-time summary plane — the
  /// receiving node buffers the block by its stamp instead of by arrival.
  /// In the parallel driver the sink runs at the epoch barrier, in slot
  /// order, so serial and parallel runs observe the identical sequence.
  void set_summary_sink(std::function<void(const Frame&)> sink) {
    summary_sink_ = std::move(sink);
  }

  // --- Parallel-epoch support (the deterministic multi-core driver) ---
  //
  // While an epoch is open, send() still applies every *sender-owned*
  // effect immediately — link/NIC serialization state, per-link RNG draws
  // (drop, corruption, latency), per-link counters — but defers the
  // cross-node effects (delivery scheduling on the event queue, the
  // system-wide counters) into per-slot buffers. end_epoch() flushes the
  // buffers in slot order; with slots numbered in the serial dispatch
  // order of the generating events, the flush reproduces bit-for-bit the
  // event-queue state a serial run would have produced.
  //
  // Contract: one epoch slot is driven by exactly one thread at a time,
  // all frames of one sender come from slots run on the same thread in
  // increasing slot order (shared-nothing nodes; so a link's frames commit
  // in the order they were sent, and its FIFO stays sorted by arrival),
  // and begin/end_epoch are called from the driver thread with the worker
  // phase strictly in between.

  /// Opens an epoch with `slots` send buffers (one per deferred task).
  void begin_epoch(std::size_t slots);
  /// Binds the calling thread to `slot`; sends then use `event_time` as
  /// the virtual send time (worker threads must not read the clock).
  void bind_epoch_slot(std::size_t slot, SimTime event_time);
  /// Flushes all deferred deliveries and counters in slot order.
  void end_epoch();

 private:
  /// A frame on the wire (its addresses are the link's), with its arrival
  /// time and reserved event sequence.
  struct InFlight {
    std::vector<std::uint8_t> payload;
    SimTime arrival = 0.0;
    std::uint64_t sequence = 0;
    std::uint32_t piggyback_bytes = 0;
    FrameKind kind = FrameKind::kTuple;
  };
  /// FIFO of one link's in-flight frames: a ring that keeps its capacity,
  /// so a steady-state link allocates nothing per frame. It grows by half
  /// (not doubling), since every link keeps its own peak.
  class FrameRing {
   public:
    bool empty() const noexcept { return count_ == 0; }
    InFlight& front() noexcept { return slots_[head_]; }
    void push_back(InFlight&& item);
    void pop_front() noexcept {
      if (++head_ == slots_.size()) head_ = 0;
      --count_;
    }

   private:
    std::vector<InFlight> slots_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
  };

  struct Link {
    common::Xoshiro256 rng{0};
    SimTime busy_until = 0.0;        // when the link finishes serializing
    SimTime last_arrival = 0.0;      // FIFO floor for the next delivery
    double bits_since_pause = 0.0;   // pause-burst accumulator
    TrafficCounters counters;
    FrameRing in_flight;             // committed frames, arrival order
  };
  struct Sender {
    SimTime busy_until = 0.0;        // shared NIC (per-node scope)
    double bits_since_pause = 0.0;
  };

  Link& link(NodeId from, NodeId to) noexcept {
    return links_[static_cast<std::size_t>(from) * handlers_.size() + to];
  }
  const Link& link(NodeId from, NodeId to) const noexcept {
    return links_[static_cast<std::size_t>(from) * handlers_.size() + to];
  }

  /// Commits a frame to its link: reserves its event sequence now and, if
  /// the link was idle, queues the link's delivery event.
  void enqueue(Frame&& frame, SimTime arrival);
  /// The link event: delivers the head frame of link `index`, queueing the
  /// next in-flight frame (if any) first.
  void deliver_head(std::size_t index);
  void schedule_head(std::size_t index);

  /// A send whose cross-node effects are deferred to the epoch barrier.
  struct PendingSend {
    Frame frame;
    SimTime arrival = 0.0;
    bool deliver = false;  // false: dropped in flight (still accounted)
    bool dropped = false;
    bool corrupted = false;
  };

  EventQueue& queue_;
  WanProfile profile_;
  std::function<void(const Frame&)> summary_sink_;
  std::vector<DeliveryHandler> handlers_;
  std::vector<Link> links_;  // N*N, row-major by sender
  std::vector<Sender> senders_;
  TrafficCounters totals_;
  std::uint64_t dropped_ = 0;
  std::uint64_t corrupted_ = 0;
  bool epoch_open_ = false;
  std::vector<std::vector<PendingSend>> epoch_sends_;  // by slot
};

}  // namespace dsjoin::net
