#include "sim/event_engine.h"

#include <algorithm>
#include <utility>

namespace oscar {

void EventEngine::ScheduleAt(SimTime at, Handler fn) {
  if (at < now_) at = now_;
  Event event{at, next_seq_++, std::move(fn)};
  // The new event carries the largest seq so far, so it extends the
  // sorted run whenever its time is no earlier than the run's tail.
  if (run_.empty() || at >= run_.back().at) {
    run_.push_back(std::move(event));
    return;
  }
  heap_.push_back(std::move(event));
  std::push_heap(heap_.begin(), heap_.end(), Later);
}

void EventEngine::ScheduleAfter(SimTime delay, Handler fn) {
  if (delay < 0.0) delay = 0.0;
  ScheduleAt(now_ + delay, std::move(fn));
}

bool EventEngine::DispatchNext() {
  Handler fn;
  if (!run_.empty() && (heap_.empty() || Later(heap_.front(), run_.front()))) {
    now_ = run_.front().at;
    fn = std::move(run_.front().fn);
    run_.pop_front();
  } else if (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    now_ = heap_.back().at;
    fn = std::move(heap_.back().fn);
    heap_.pop_back();
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
