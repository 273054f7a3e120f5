#include "reference.h"

#include <chrono>
#include <utility>

namespace oscar_bench {
namespace {

constexpr uint32_t kCycleLength = 512 * 1024 / sizeof(uint32_t);
constexpr uint64_t kStepsPerSample = 1 << 22;

}  // namespace

HostReference::HostReference() : next_(kCycleLength) {
  // Slots linked in a shuffled order: one cycle through all of them, so
  // the prefetcher cannot follow it. A fixed xorshift stream makes it the
  // same on every build.
  std::vector<uint32_t> order(kCycleLength);
  for (uint32_t i = 0; i < kCycleLength; ++i) order[i] = i;
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (uint32_t i = kCycleLength - 1; i > 0; --i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    std::swap(order[i], order[state % (i + 1)]);
  }
  for (uint32_t i = 0; i < kCycleLength; ++i) {
    next_[order[i]] = order[(i + 1) % kCycleLength];
  }
}

double HostReference::Sample() {
  const auto start = std::chrono::steady_clock::now();
  uint32_t p = position_;
  for (uint64_t i = 0; i < kStepsPerSample; ++i) p = next_[p];
  position_ = p;  // Keeps the chase from being optimized away.
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double ToReferenceSeconds(double wall_s, double kernel_s) {
  return kernel_s > 0.0 ? wall_s * kReferenceSeconds / kernel_s : wall_s;
}

}  // namespace oscar_bench
