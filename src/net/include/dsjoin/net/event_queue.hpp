// Discrete-event scheduler in virtual time.
//
// The WAN prototype of the paper ran on twenty workstations with artificial
// latency and bandwidth shaping; our reproduction runs the same node logic
// under a deterministic virtual clock. Events fire in nondecreasing time
// order; ties break by insertion order (FIFO), which the simulated links
// rely on for TCP-like ordering.
//
// Epochs: the parallel driver consumes the queue in *epochs* — all events
// sharing the next virtual timestamp (or, with lookahead, all events inside
// a half-open window no wider than the minimum network latency, so nothing
// executed in the epoch can schedule a cross-node event back into it). The
// queue supports this with next_when()/run_epoch() plus *barrier* events:
// events that must never share an epoch with per-node work (node restarts,
// topology changes). run_all()/run_one() treat barrier events like any
// other, so the serial path is unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace dsjoin::net {

/// Virtual time in seconds.
using SimTime = double;

/// A min-heap of timestamped callbacks with deterministic tie-breaking.
///
/// The heap orders small trivially copyable keys; the callbacks themselves
/// live in a slab indexed by the key's slot and are never moved by heap
/// sifts. Freed slots are reused LIFO, so a steady-state run allocates no
/// slab storage.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `fn` at absolute virtual time `when` (>= now()).
  void schedule_at(SimTime when, Callback fn);

  /// Schedules `fn` `delay` seconds from now.
  void schedule_in(SimTime delay, Callback fn) { schedule_at(now_ + delay, std::move(fn)); }

  /// Draws the tie-breaking sequence number schedule_at would draw now,
  /// without scheduling anything. A producer that holds events back (the
  /// simulated links keep each link's in-flight frames in their own FIFO
  /// and queue only its head) reserves at the moment it would have
  /// scheduled, then enters the event later with schedule_reserved_at; the
  /// (when, sequence) pop order is then exactly that of scheduling at once.
  std::uint64_t reserve_sequence() noexcept { return next_sequence_++; }

  /// Schedules `fn` at `when` under a sequence number obtained earlier from
  /// reserve_sequence(). The caller must enter the event before any pending
  /// event ordered after it runs.
  void schedule_reserved_at(SimTime when, std::uint64_t sequence, Callback fn);

  /// Schedules a *barrier* event: run_epoch() and the parallel driver's
  /// dispatch loop stop in front of it so it executes alone, after every
  /// earlier event's effects are fully applied. Serial execution order is
  /// identical to schedule_at.
  void schedule_barrier_at(SimTime when, Callback fn);

  /// Current virtual time (the timestamp of the last executed event).
  SimTime now() const noexcept { return now_; }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t pending() const noexcept { return heap_.size(); }

  /// Timestamp of the earliest pending event. Precondition: !empty().
  SimTime next_when() const noexcept { return heap_.top().when; }

  /// Whether the earliest pending event is a barrier event.
  /// Precondition: !empty().
  bool next_is_barrier() const noexcept { return heap_.top().barrier; }

  /// Executes the earliest event; returns false if none is pending.
  bool run_one();

  /// Runs one epoch: every pending event sharing the earliest pending
  /// timestamp, in insertion order — except that a barrier event ends the
  /// epoch (a leading barrier event runs alone). Events scheduled *during*
  /// the epoch at the same timestamp join it (they sort after every event
  /// already pending, exactly as under run_all). Returns the number of
  /// events executed (0 when the queue is empty).
  std::size_t run_epoch();

  /// Runs events until the queue drains or the next event would fire after
  /// `limit`; returns the number executed. now() ends at the timestamp of
  /// the last executed event (not advanced to `limit`).
  std::size_t run_until(SimTime limit);

  /// Runs events until the queue drains or `max_events` were executed.
  std::size_t run_all(std::size_t max_events = SIZE_MAX);

 private:
  struct Key {
    SimTime when;
    std::uint64_t sequence;  // insertion order for stable ties
    std::uint32_t slot;      // index of the callback in slab_
    bool barrier;
  };
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.sequence > b.sequence;
    }
  };

  void push(SimTime when, std::uint64_t sequence, bool barrier, Callback fn);

  std::priority_queue<Key, std::vector<Key>, Later> heap_;
  std::vector<Callback> slab_;       // callbacks of pending events
  std::vector<std::uint32_t> free_;  // vacant slab slots, reused LIFO
  SimTime now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
};

}  // namespace dsjoin::net
