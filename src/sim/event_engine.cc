#include "sim/event_engine.h"

#include <cstring>
#include <utility>

namespace oscar {

EventEngine::OrderWord EventEngine::OrderOf(SimTime at, uint64_t seq) {
  uint64_t bits = 0;
  std::memcpy(&bits, &at, sizeof bits);
  return (static_cast<OrderWord>(bits) << 64) | seq;
}

void EventEngine::ScheduleAt(SimTime at, Handler fn) {
  if (at < now_) at = now_;
  at += 0.0;  // -0.0 becomes +0.0, whose bit pattern orders first.
  const uint64_t seq = next_seq_++;
  // The new event carries the largest seq so far, so it extends the
  // sorted run whenever its time is no earlier than the run's tail.
  if (run_.empty() || at >= run_.back().at) {
    run_.push_back(Event{at, seq, std::move(fn)});
    return;
  }
  uint32_t slot = static_cast<uint32_t>(slots_.size());
  if (free_slots_.empty()) {
    slots_.push_back(std::move(fn));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
  }
  heap_.push_back(HeapEntry{OrderOf(at, seq), slot});
  SiftUp(heap_.size() - 1);
}

void EventEngine::ScheduleAfter(SimTime delay, Handler fn) {
  if (delay < 0.0) delay = 0.0;
  ScheduleAt(now_ + delay, std::move(fn));
}

void EventEngine::SiftUp(size_t i) {
  const HeapEntry entry = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (heap_[parent].order <= entry.order) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void EventEngine::SiftDown(size_t i) {
  const size_t n = heap_.size();
  const HeapEntry entry = heap_[i];
  for (;;) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && heap_[child + 1].order < heap_[child].order) {
      ++child;
    }
    if (entry.order <= heap_[child].order) break;
    heap_[i] = heap_[child];
    i = child;
  }
  heap_[i] = entry;
}

bool EventEngine::DispatchNext() {
  Handler fn;
  if (!run_.empty() &&
      (heap_.empty() ||
       OrderOf(run_.front().at, run_.front().seq) < heap_.front().order)) {
    now_ = run_.front().at;
    fn = std::move(run_.front().fn);
    run_.pop_front();
  } else if (!heap_.empty()) {
    const HeapEntry top = heap_.front();
    const uint64_t at_bits = static_cast<uint64_t>(top.order >> 64);
    std::memcpy(&now_, &at_bits, sizeof now_);
    fn = std::move(slots_[top.slot]);
    free_slots_.push_back(top.slot);
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) SiftDown(0);
  } else {
    return false;
  }
  ++dispatched_;
  fn();
  return true;
}

size_t EventEngine::Run(size_t max_events) {
  size_t ran = 0;
  while (ran < max_events && DispatchNext()) ++ran;
  return ran;
}

}  // namespace oscar
