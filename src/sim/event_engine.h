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
// holds only the events in flight, not the whole arrival backlog. A
// heap entry is a 32-byte POD: one 128-bit order word (the bit pattern
// of its time above its sequence number) and the index of the slot
// that holds its handler. Event times are finite and non-negative
// (ScheduleAt clamps to now(), which starts at 0, and -0.0 is stored as
// +0.0), and such doubles order as their bit patterns do, so one
// integer compare decides (time, seq) order and sifting moves no
// std::function. Freed handler slots go on a free list for the next
// heap event, so scheduling and dispatch touch no map and, once the
// pool has grown to the peak in-flight count, no allocator for the
// queue itself. Events cannot be cancelled: a handler whose work went
// stale checks its own state and returns.

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

  /// Schedules `fn` at absolute virtual time `at`, which must be finite;
  /// times in the past are clamped to now() (the clock never runs
  /// backwards, so every scheduled time is non-negative).
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
  /// (time bits << 64) | seq: for finite non-negative times, a smaller
  /// word is an earlier event, or an equal time scheduled first.
  using OrderWord = unsigned __int128;

  struct Event {
    SimTime at;
    uint64_t seq;
    Handler fn;
  };
  struct HeapEntry {
    OrderWord order;
    uint32_t slot;  // Index into slots_.
  };

  static OrderWord OrderOf(SimTime at, uint64_t seq);

  /// Pops and runs the earliest event. False when both queues are empty.
  bool DispatchNext();
  /// Restores the min-heap after heap_[i] got a smaller (SiftUp) or
  /// larger (SiftDown) order word.
  void SiftUp(size_t i);
  void SiftDown(size_t i);

  // A deque, not a vector: it grows without doubling its footprint and
  // frees its blocks as the run drains.
  std::deque<Event> run_;        // Sorted by (at, seq); appended at the back.
  std::vector<HeapEntry> heap_;  // Min-heap on order.
  std::vector<Handler> slots_;   // Handlers of heap events, by slot.
  std::vector<uint32_t> free_slots_;
  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t dispatched_ = 0;
};

}  // namespace oscar

#endif  // OSCAR_SIM_EVENT_ENGINE_H_
