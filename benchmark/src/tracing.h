// Benchmark-side tracing. Spans bracket calls into the oscar library's
// public functions, and two decorators time the library's public
// strategy interfaces (Overlay, SegmentSampler) by forwarding every
// virtual. Nothing here reaches inside src/, so an untraced run executes
// exactly the library code a user runs.
//
// Spans are kept in per-thread buffers and read back once the traced
// work has finished. A span's parent is the enclosing span on its own
// thread; a span opened on a thread with no open span (a ParallelFor
// worker) gets the innermost open *phase* span of the driving thread.
// Sampler calls are far too many for spans, so they only add to
// per-thread count/steps/busy aggregates.

#ifndef OSCAR_BENCHMARK_TRACING_H_
#define OSCAR_BENCHMARK_TRACING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "overlay/overlay.h"
#include "sampling/segment_sampler.h"

namespace oscar_bench {

struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = top level.
  uint32_t thread = 0;  // Dense index, in order of first use.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

struct WalkTotals {
  uint64_t calls = 0;
  uint64_t steps = 0;
  int64_t busy_ns = 0;
  uint64_t failed = 0;
};

/// Sampler work split on NetworkView::snapshot(): walks over a frozen
/// CSR snapshot (rewire and join planning) versus over the live,
/// mutable Network (sequential joins, churn rebuilds, maintenance).
struct SamplerTotals {
  WalkTotals csr;
  WalkTotals live;
};

SamplerTotals operator-(const SamplerTotals& a, const SamplerTotals& b);

/// Nanoseconds on the steady clock since process start.
int64_t NowNs();

/// All spans recorded so far. Call only while no traced call runs on
/// another thread (the ParallelFor join orders the workers' writes).
std::vector<Span> CollectSpans();
/// Sampler aggregates summed over every thread, same caveat.
SamplerTotals CollectSamplerTotals();
/// Drops every span and sampler aggregate recorded so far, so that runs
/// sharing a process (the smoke test) each read only their own. Same
/// caveat, and no span may be open.
void ResetTracing();

/// RAII span. A phase span marks a coarse call the driving thread
/// makes (Simulation::Run, RestoreInto, ...); pool workers parent
/// their spans to the innermost open one. `on = false` records nothing,
/// so one code path serves traced and untraced repetitions.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, bool on = true, bool phase = false);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  uint64_t id_ = 0;
  bool phase_ = false;
};

inline constexpr char kBuildLinksSpan[] = "Overlay::BuildLinks";
inline constexpr char kPlanLinksSpan[] = "Overlay::PlanLinks";
inline constexpr char kPlanJoinLinksSpan[] = "Overlay::PlanJoinLinks";

/// Forwards every SegmentSampler call, adding its wall time and walk
/// steps to the calling thread's aggregates.
class TimedSampler : public oscar::SegmentSampler {
 public:
  explicit TimedSampler(oscar::SegmentSamplerPtr inner)
      : inner_(std::move(inner)) {}

  oscar::Result<oscar::SegmentSample> SampleInSegment(
      oscar::NetworkView net, oscar::PeerId origin, oscar::KeyId from,
      oscar::KeyId to, oscar::Rng* rng) const override;
  std::string name() const override { return inner_->name(); }

 private:
  oscar::SegmentSamplerPtr inner_;
};

/// Forwards every Overlay virtual; the three link-building calls each
/// record a span.
class TimedOverlay : public oscar::Overlay {
 public:
  explicit TimedOverlay(oscar::OverlayPtr inner) : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  oscar::Status BuildLinks(oscar::Network* net, oscar::PeerId id,
                           oscar::Rng* rng) override;
  bool SupportsPlanning() const override {
    return inner_->SupportsPlanning();
  }
  oscar::PeerLinkPlan PlanLinks(oscar::NetworkView net, oscar::PeerId id,
                                oscar::Rng* rng) const override;
  oscar::PeerLinkPlan PlanJoinLinks(oscar::NetworkView net, oscar::KeyId key,
                                    oscar::DegreeCaps caps,
                                    oscar::Rng* rng) const override;
  bool SupportsJoinPlanning() const override {
    return inner_->SupportsJoinPlanning();
  }
  void AddSamplingSteps(uint64_t steps) override {
    inner_->AddSamplingSteps(steps);
  }
  uint64_t sampling_steps() const override {
    return inner_->sampling_steps();
  }

 private:
  oscar::OverlayPtr inner_;
};

/// The Oscar overlay the untraced workloads get from OscarFactory(),
/// with its default random-walk sampler wrapped in a TimedSampler and
/// the overlay itself wrapped in a TimedOverlay.
oscar::OverlayPtr MakeTracedOscar();

}  // namespace oscar_bench

#endif  // OSCAR_BENCHMARK_TRACING_H_
