// Discrete-event core: a monotonic virtual clock over an event queue
// with deterministic tie-breaking. Events at the same virtual time
// dispatch in schedule order — ordering is a pure function of (time,
// sequence number), never of queue internals or pointer values, so a
// fixed seed reproduces an identical event trace.
//
// The queue is two queues merged at dispatch. An event scheduled no
// earlier than the last one in the sorted run (every event of a
// pre-drawn arrival stream, all ties at one time) is appended to that
// FIFO run; every other event goes into a binary heap, which therefore
// holds only the events in flight, not the whole arrival backlog. Each
// entry owns its handler, so scheduling and dispatch touch no map.
// Events cannot be cancelled: a handler whose work went stale checks
// its own state and returns.

#ifndef OSCAR_SIM_EVENT_ENGINE_H_
#define OSCAR_SIM_EVENT_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <vector>

namespace oscar {

/// Virtual time in milliseconds.
using SimTime = double;

class EventEngine {
 public:
  using Handler = std::function<void()>;

  /// Schedules `fn` at absolute virtual time `at`; times in the past
  /// are clamped to now() (the clock never runs backwards).
  void ScheduleAt(SimTime at, Handler fn);

  /// Schedules `fn` after a relative delay (negative delays clamp to 0).
  void ScheduleAfter(SimTime delay, Handler fn);

  SimTime now() const { return now_; }
  size_t pending() const { return run_.size() + heap_.size(); }
  uint64_t dispatched() const { return dispatched_; }

  /// Dispatches events in (time, schedule order) until the queue drains
  /// or `max_events` have run in this call (a backstop against runaway
  /// handler loops). Returns the number dispatched.
  size_t Run(size_t max_events = std::numeric_limits<size_t>::max());

 private:
  struct Event {
    SimTime at;
    uint64_t seq;
    Handler fn;
  };
  /// (time, seq) order; also the heap's "lower priority" test.
  static bool Later(const Event& a, const Event& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }

  /// Pops and runs the earliest event. False when both queues are empty.
  bool DispatchNext();

  // A deque, not a vector: it grows without doubling its footprint and
  // frees its blocks as the run drains.
  std::deque<Event> run_;   // Sorted by (at, seq); appended at the back.
  std::vector<Event> heap_;  // Min-heap under Later.
  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t dispatched_ = 0;
};

}  // namespace oscar

#endif  // OSCAR_SIM_EVENT_ENGINE_H_
