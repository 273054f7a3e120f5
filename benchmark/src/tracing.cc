#include "tracing.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

#include "overlay/oscar/oscar_overlay.h"
#include "sampling/random_walk_sampler.h"

namespace oscar_bench {
namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point g_epoch = Clock::now();

struct ThreadBuffer {
  uint32_t index = 0;
  std::vector<Span> spans;
  std::vector<size_t> open;      // Indices into `spans`, innermost last.
  std::vector<uint64_t> phases;  // Open phase span ids, innermost last.
  SamplerTotals sampler;
};

std::mutex g_mu;
// Buffers outlive their threads: ParallelFor spawns workers per call,
// and their spans are read after the workers have been joined.
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // Guarded by g_mu.
std::atomic<uint64_t> g_next_id{1};
// Innermost open phase span of whichever thread opened one (only the
// driving thread does); the parent of spans opened by pool workers.
std::atomic<uint64_t> g_phase{0};

ThreadBuffer& Local() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    local = g_buffers.back().get();
    local->index = static_cast<uint32_t>(g_buffers.size() - 1);
  }
  return *local;
}

void Add(WalkTotals* into, uint64_t steps, int64_t busy_ns, bool failed) {
  ++into->calls;
  into->steps += steps;
  into->busy_ns += busy_ns;
  if (failed) ++into->failed;
}

WalkTotals Minus(const WalkTotals& a, const WalkTotals& b) {
  return {a.calls - b.calls, a.steps - b.steps, a.busy_ns - b.busy_ns,
          a.failed - b.failed};
}

void Accumulate(WalkTotals* into, const WalkTotals& add) {
  into->calls += add.calls;
  into->steps += add.steps;
  into->busy_ns += add.busy_ns;
  into->failed += add.failed;
}

}  // namespace

SamplerTotals operator-(const SamplerTotals& a, const SamplerTotals& b) {
  return {Minus(a.csr, b.csr), Minus(a.live, b.live)};
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              g_epoch)
      .count();
}

std::vector<Span> CollectSpans() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<Span> out;
  for (const auto& buffer : g_buffers) {
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return out;
}

SamplerTotals CollectSamplerTotals() {
  std::lock_guard<std::mutex> lock(g_mu);
  SamplerTotals out;
  for (const auto& buffer : g_buffers) {
    Accumulate(&out.csr, buffer->sampler.csr);
    Accumulate(&out.live, buffer->sampler.live);
  }
  return out;
}

void ResetTracing() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& buffer : g_buffers) {
    buffer->spans.clear();
    buffer->sampler = SamplerTotals();
  }
}

ScopedSpan::ScopedSpan(const char* name, bool on, bool phase)
    : phase_(phase) {
  if (!on) return;
  ThreadBuffer& buffer = Local();
  Span span;
  span.name = name;
  span.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span.parent = buffer.open.empty()
                    ? g_phase.load(std::memory_order_acquire)
                    : buffer.spans[buffer.open.back()].id;
  span.thread = buffer.index;
  span.start_ns = NowNs();
  buffer.open.push_back(buffer.spans.size());
  buffer.spans.push_back(span);
  id_ = span.id;
  if (phase_) {
    buffer.phases.push_back(id_);
    g_phase.store(id_, std::memory_order_release);
  }
}

ScopedSpan::~ScopedSpan() {
  if (id_ == 0) return;
  ThreadBuffer& buffer = Local();
  // RAII closes spans innermost-first, so the top is always this one.
  buffer.spans[buffer.open.back()].end_ns = NowNs();
  buffer.open.pop_back();
  if (phase_) {
    buffer.phases.pop_back();
    g_phase.store(buffer.phases.empty() ? 0 : buffer.phases.back(),
                  std::memory_order_release);
  }
}

oscar::Result<oscar::SegmentSample> TimedSampler::SampleInSegment(
    oscar::NetworkView net, oscar::PeerId origin, oscar::KeyId from,
    oscar::KeyId to, oscar::Rng* rng) const {
  const int64_t start = NowNs();
  auto sample = inner_->SampleInSegment(net, origin, from, to, rng);
  const int64_t busy = NowNs() - start;
  SamplerTotals& totals = Local().sampler;
  Add(net.snapshot() != nullptr ? &totals.csr : &totals.live,
      sample.ok() ? sample.value().steps : 0, busy, !sample.ok());
  return sample;
}

oscar::Status TimedOverlay::BuildLinks(oscar::Network* net, oscar::PeerId id,
                                       oscar::Rng* rng) {
  ScopedSpan span(kBuildLinksSpan);
  return inner_->BuildLinks(net, id, rng);
}

oscar::PeerLinkPlan TimedOverlay::PlanLinks(oscar::NetworkView net,
                                            oscar::PeerId id,
                                            oscar::Rng* rng) const {
  ScopedSpan span(kPlanLinksSpan);
  return inner_->PlanLinks(net, id, rng);
}

oscar::PeerLinkPlan TimedOverlay::PlanJoinLinks(oscar::NetworkView net,
                                                oscar::KeyId key,
                                                oscar::DegreeCaps caps,
                                                oscar::Rng* rng) const {
  ScopedSpan span(kPlanJoinLinksSpan);
  return inner_->PlanJoinLinks(net, key, caps, rng);
}

oscar::OverlayPtr MakeTracedOscar() {
  oscar::OscarOptions options;
  options.sampler = std::make_shared<TimedSampler>(
      std::make_shared<oscar::RandomWalkSegmentSampler>());
  return std::make_shared<TimedOverlay>(
      std::make_shared<oscar::OscarOverlay>(options));
}

}  // namespace oscar_bench
