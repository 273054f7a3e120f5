#include "sim/event_engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <ostream>
#include <utility>
#include <vector>

#include "core/rng.h"

namespace oscar {
namespace {

TEST(EventEngineTest, DispatchesInTimeOrder) {
  EventEngine engine;
  std::vector<int> order;
  engine.ScheduleAt(30.0, [&order] { order.push_back(3); });
  engine.ScheduleAt(10.0, [&order] { order.push_back(1); });
  engine.ScheduleAt(20.0, [&order] { order.push_back(2); });
  EXPECT_EQ(engine.Run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(engine.now(), 30.0);
}

TEST(EventEngineTest, TiesBreakInScheduleOrder) {
  EventEngine engine;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    engine.ScheduleAt(5.0, [&order, i] { order.push_back(i); });
  }
  engine.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(EventEngineTest, ClockIsMonotonicAndClampsThePast) {
  EventEngine engine;
  double seen = -1.0;
  engine.ScheduleAt(50.0, [&engine, &seen] {
    // Scheduling behind the clock fires immediately, never rewinds.
    engine.ScheduleAt(10.0, [&engine, &seen] { seen = engine.now(); });
  });
  engine.Run();
  EXPECT_DOUBLE_EQ(seen, 50.0);
}

TEST(EventEngineTest, HandlersScheduleFollowUps) {
  EventEngine engine;
  int chain = 0;
  std::function<void()> tick = [&] {
    if (++chain < 5) engine.ScheduleAfter(1.0, tick);
  };
  engine.ScheduleAfter(1.0, tick);
  EXPECT_EQ(engine.Run(), 5u);
  EXPECT_EQ(chain, 5);
  EXPECT_DOUBLE_EQ(engine.now(), 5.0);
}

TEST(EventEngineTest, RunHonorsMaxEvents) {
  EventEngine engine;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    engine.ScheduleAt(static_cast<double>(i), [&fired] { ++fired; });
  }
  EXPECT_EQ(engine.Run(4), 4u);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(engine.pending(), 6u);
  EXPECT_EQ(engine.Run(), 6u);
}

TEST(EventEngineTest, NegativeDelayClampsToNow) {
  EventEngine engine;
  engine.ScheduleAt(7.0, [] {});
  engine.Run();
  double fired_at = -1.0;
  engine.ScheduleAfter(-5.0, [&engine, &fired_at] { fired_at = engine.now(); });
  engine.Run();
  EXPECT_DOUBLE_EQ(fired_at, 7.0);
}

TEST(EventEngineTest, EqualTimesSplitBetweenRunAndHeapKeepScheduleOrder) {
  EventEngine engine;
  std::vector<int> order;
  auto record = [&order](int label) {
    return [&order, label] { order.push_back(label); };
  };
  engine.ScheduleAt(10.0, record(0));  // Run.
  engine.ScheduleAt(20.0, record(1));  // Run.
  engine.ScheduleAt(10.0, record(2));  // Heap: earlier than the run tail.
  engine.ScheduleAt(20.0, record(3));  // Run: ties the tail.
  engine.ScheduleAt(10.0, record(4));  // Heap.
  engine.ScheduleAt(20.0, [&engine, &order] {
    order.push_back(5);
    engine.ScheduleAt(20.0, [&order] { order.push_back(6); });
  });
  EXPECT_EQ(engine.Run(), 7u);
  EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 1, 3, 5, 6}));
}

// ---- Model test ----------------------------------------------------------
//
// Seeded random schedules run on the engine and on a naive reference
// that scans for the smallest (time, schedule order) pending event. Both
// sides issue the same scheduling calls — external bursts between
// partial Run(max_events) calls, and follow-ups from inside handlers,
// each a pure function of (seed, event label) — and must agree on the
// dispatch order, on now() at every dispatch, and on pending() and the
// dispatch count after every Run. Every time is finite and, after the
// clamp to now(), non-negative: the engine orders events by the bit
// patterns of their times, which is the numeric order only there.

/// One scheduling call: ScheduleAt(offset) when `absolute`, otherwise
/// relative to the clock when it is issued, ScheduleAt(now + offset) or
/// ScheduleAfter(offset). Negative offsets and absolute times behind
/// the clock exercise clamping.
struct ScheduleOp {
  bool after = false;
  double offset = 0.0;
  bool absolute = false;
};

/// How a schedule draws its times.
enum class TimeMix {
  kAllAtZero,  // Every event at t=0: one long tie.
  kCoarse,     // A few integer times: many ties.
  kBursts,     // Monotone runs mixed with out-of-order and past times.
  kExtremes,   // Signed zeros, subnormals and huge finite times.
  kDeepHeap,   // A far run tail; handlers fan out thousands of events.
};

/// Absolute times at the edges of the finite non-negative doubles (and
/// -0.0, which must tie +0.0).
constexpr double kExtremeTimes[] = {
    -0.0,
    0.0,
    std::numeric_limits<double>::denorm_min(),
    1e-300,
    1.0,
    1e300,
    std::numeric_limits<double>::max() / 2,
    0x1.ffffffffffffep+1023,  // The largest finite double's predecessor.
    std::numeric_limits<double>::max(),
};

/// One scattered or follow-up scheduling call.
ScheduleOp DrawOp(TimeMix mix, Rng* rng) {
  ScheduleOp op;
  op.after = rng->UniformInt(2) == 0;
  switch (mix) {
    case TimeMix::kAllAtZero:
      return op;
    case TimeMix::kCoarse:
      op.offset = static_cast<double>(rng->UniformInt(4));
      return op;
    case TimeMix::kExtremes:
      // Half absolute extremes; the rest small relative steps, which
      // stay finite even from the largest time (they round back to it).
      if (rng->UniformInt(2) == 0) {
        constexpr size_t kCount = sizeof(kExtremeTimes) / sizeof(double);
        op.offset = kExtremeTimes[rng->UniformInt(kCount)];
        op.absolute = true;
        return op;
      }
      op.offset = rng->UniformInt(3) == 0 ? -0.0 : rng->NextDouble();
      return op;
    case TimeMix::kBursts:
    case TimeMix::kDeepHeap:
      break;
  }
  // A fifth land in the past, the rest anywhere in the next 50 ms.
  if (rng->UniformInt(5) == 0) {
    op.offset = -1.0 - 10.0 * rng->NextDouble();
  } else {
    op.offset = 50.0 * rng->NextDouble();
  }
  return op;
}

/// An external burst: a monotone run (the sorted run's traffic), then a
/// few out-of-order events. Under kDeepHeap: one or two roots, then an
/// event far in the future that stays the run's tail, so every
/// follow-up of the roots takes the heap path.
std::vector<ScheduleOp> DrawBurst(TimeMix mix, Rng* rng) {
  std::vector<ScheduleOp> ops;
  if (mix == TimeMix::kDeepHeap) {
    const size_t roots = 1 + static_cast<size_t>(rng->UniformInt(2));
    for (size_t i = 0; i < roots; ++i) ops.push_back(DrawOp(mix, rng));
    ops.push_back({false, 1e9, false});
    return ops;
  }
  const size_t monotone = static_cast<size_t>(rng->UniformInt(40));
  double offset = mix == TimeMix::kAllAtZero ? 0.0 : 10.0 * rng->NextDouble();
  for (size_t i = 0; i < monotone; ++i) {
    ops.push_back({false, offset});
    // Half the steps are ties.
    if (mix != TimeMix::kAllAtZero && rng->UniformInt(2) == 0) {
      offset += mix == TimeMix::kCoarse ? 1.0 : rng->NextDouble();
    }
  }
  const size_t scattered = static_cast<size_t>(rng->UniformInt(12));
  for (size_t i = 0; i < scattered; ++i) ops.push_back(DrawOp(mix, rng));
  return ops;
}

/// Follow-ups scheduled by the handler of event `label`, at depth
/// `depth` of the follow-up tree: a pure function of the arguments, so
/// both sides issue the same calls when they dispatch the same event.
/// Under kDeepHeap every event to depth 10 has two, so each root brings
/// 2047 events and the heap's handler slots are freed and reused
/// thousands of times while up to a thousand are pending.
std::vector<ScheduleOp> FollowUpsOf(uint64_t seed, TimeMix mix,
                                    uint64_t label, int depth) {
  const bool deep = mix == TimeMix::kDeepHeap;
  if (depth >= (deep ? 10 : 3)) return {};
  Rng rng = Rng::Fork(seed, label, static_cast<uint64_t>(depth));
  const size_t count = deep ? 2 : static_cast<size_t>(rng.UniformInt(3));
  std::vector<ScheduleOp> ops(count);
  for (ScheduleOp& op : ops) op = DrawOp(mix, &rng);
  return ops;
}

struct Dispatch {
  uint64_t label;
  SimTime now;
  bool operator==(const Dispatch& other) const {
    return label == other.label && now == other.now;
  }
  friend std::ostream& operator<<(std::ostream& out, const Dispatch& d) {
    return out << "#" << d.label << "@" << d.now;
  }
};

/// The reference: a flat list, scanned for the minimum on every pop.
class ReferenceEngine {
 public:
  void Schedule(const ScheduleOp& op, uint64_t label, int depth) {
    SimTime at;
    if (op.absolute) {
      at = op.offset;
    } else if (op.after) {
      at = now_ + (op.offset < 0.0 ? 0.0 : op.offset);
    } else {
      at = now_ + op.offset;
    }
    if (at < now_) at = now_;
    pending_.push_back({at, next_seq_++, label, depth});
  }

  /// Pops the earliest (at, seq) event, or returns false.
  bool Pop(Dispatch* out, int* depth) {
    if (pending_.empty()) return false;
    size_t best = 0;
    for (size_t i = 1; i < pending_.size(); ++i) {
      const Item& a = pending_[i];
      const Item& b = pending_[best];
      if (a.at < b.at || (a.at == b.at && a.seq < b.seq)) best = i;
    }
    const Item item = pending_[best];
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(best));
    now_ = item.at;
    *out = {item.label, now_};
    *depth = item.depth;
    return true;
  }

  SimTime now() const { return now_; }
  size_t pending() const { return pending_.size(); }

 private:
  struct Item {
    SimTime at;
    uint64_t seq;
    uint64_t label;
    int depth;
  };
  std::vector<Item> pending_;
  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
};

/// The engine side: handlers record their dispatch and issue their
/// follow-ups. Labels count scheduling calls, as on the reference side.
class EngineDriver {
 public:
  EngineDriver(uint64_t seed, TimeMix mix) : seed_(seed), mix_(mix) {}

  void Schedule(const ScheduleOp& op, int depth) {
    const uint64_t label = next_label_++;
    auto handler = [this, label, depth] {
      trace_.push_back({label, engine_.now()});
      for (const ScheduleOp& child : FollowUpsOf(seed_, mix_, label, depth)) {
        Schedule(child, depth + 1);
      }
    };
    if (op.absolute) {
      engine_.ScheduleAt(op.offset, handler);
    } else if (op.after) {
      engine_.ScheduleAfter(op.offset, handler);
    } else {
      engine_.ScheduleAt(engine_.now() + op.offset, handler);
    }
  }

  EventEngine& engine() { return engine_; }
  const std::vector<Dispatch>& trace() const { return trace_; }

 private:
  uint64_t seed_;
  TimeMix mix_;
  EventEngine engine_;
  uint64_t next_label_ = 0;
  std::vector<Dispatch> trace_;
};

void CheckAgainstReference(uint64_t seed, TimeMix mix) {
  SCOPED_TRACE(testing::Message() << "seed " << seed << " mix "
                                  << static_cast<int>(mix));
  Rng rng(seed);
  EngineDriver driver(seed, mix);
  ReferenceEngine reference;
  uint64_t reference_labels = 0;
  std::vector<Dispatch> expected;
  const int rounds = 1 + static_cast<int>(rng.UniformInt(6));
  for (int round = 0; round < rounds; ++round) {
    for (const ScheduleOp& op : DrawBurst(mix, &rng)) {
      driver.Schedule(op, 0);
      reference.Schedule(op, reference_labels++, 0);
    }
    // Partial runs, then (in the last round) a drain.
    const bool drain = round + 1 == rounds;
    const size_t budget =
        drain ? SIZE_MAX : static_cast<size_t>(rng.UniformInt(60));
    size_t reference_ran = 0;
    Dispatch next{};
    int depth = 0;
    while (reference_ran < budget && reference.Pop(&next, &depth)) {
      expected.push_back(next);
      ++reference_ran;
      for (const ScheduleOp& child :
           FollowUpsOf(seed, mix, next.label, depth)) {
        reference.Schedule(child, reference_labels++, depth + 1);
      }
    }
    EXPECT_EQ(driver.engine().Run(budget), reference_ran);
    ASSERT_EQ(driver.trace(), expected);
    EXPECT_EQ(driver.engine().pending(), reference.pending());
    EXPECT_EQ(driver.engine().now(), reference.now());
    EXPECT_EQ(driver.engine().dispatched(), expected.size());
  }
  EXPECT_EQ(driver.engine().pending(), 0u);
}

TEST(EventEngineModelTest, MatchesSortedReferenceOnRandomSchedules) {
  for (uint64_t seed = 1; seed <= 120; ++seed) {
    CheckAgainstReference(seed, TimeMix::kAllAtZero);
    CheckAgainstReference(seed, TimeMix::kCoarse);
    CheckAgainstReference(seed, TimeMix::kBursts);
    CheckAgainstReference(seed, TimeMix::kExtremes);
  }
  // Up to 24k events each, scanned quadratically by the reference.
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    CheckAgainstReference(seed, TimeMix::kDeepHeap);
  }
}

}  // namespace
}  // namespace oscar
