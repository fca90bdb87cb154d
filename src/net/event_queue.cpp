#include "dsjoin/net/event_queue.hpp"

#include <cassert>
#include <utility>

namespace dsjoin::net {

void EventQueue::push(SimTime when, std::uint64_t sequence, bool barrier,
                      Callback fn) {
  assert(when >= now_ && "cannot schedule into the past");
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(fn));
  } else {
    slot = free_.back();
    free_.pop_back();
    slab_[slot] = std::move(fn);
  }
  heap_.push(Key{when < now_ ? now_ : when, sequence, slot, barrier});
}

void EventQueue::schedule_at(SimTime when, Callback fn) {
  push(when, next_sequence_++, false, std::move(fn));
}

void EventQueue::schedule_reserved_at(SimTime when, std::uint64_t sequence,
                                      Callback fn) {
  assert(sequence < next_sequence_ && "sequence was never reserved");
  push(when, sequence, false, std::move(fn));
}

void EventQueue::schedule_barrier_at(SimTime when, Callback fn) {
  push(when, next_sequence_++, true, std::move(fn));
}

bool EventQueue::run_one() {
  if (heap_.empty()) return false;
  const Key key = heap_.top();
  heap_.pop();
  // Move the callback out of its slot (leaving the slot empty) before
  // invoking it: the callback may schedule more events and grow the slab.
  Callback fn;
  fn.swap(slab_[key.slot]);
  free_.push_back(key.slot);
  now_ = key.when;
  fn();
  return true;
}

std::size_t EventQueue::run_until(SimTime limit) {
  std::size_t executed = 0;
  while (!heap_.empty() && heap_.top().when <= limit) {
    run_one();
    ++executed;
  }
  return executed;
}

std::size_t EventQueue::run_all(std::size_t max_events) {
  std::size_t executed = 0;
  while (executed < max_events && run_one()) ++executed;
  return executed;
}

std::size_t EventQueue::run_epoch() {
  if (heap_.empty()) return 0;
  const SimTime when = heap_.top().when;
  std::size_t executed = 0;
  // A leading barrier event is its own epoch; a later one ends the epoch
  // before running.
  if (heap_.top().barrier) {
    run_one();
    return 1;
  }
  while (!heap_.empty() && heap_.top().when == when && !heap_.top().barrier) {
    run_one();
    ++executed;
  }
  return executed;
}

}  // namespace dsjoin::net
