// Host-speed reference. On a VM that shares its cores and caches with
// other tenants, the same work takes 10-40% longer in some minutes than
// in others. A fixed kernel, independent of the library, is timed right
// before and right after every measured interval, and the interval is
// reported in reference seconds: the time it would have taken in a
// minute where the kernel takes kReferenceSeconds. A library change
// moves the interval and leaves the kernel alone, so it shows in full;
// host drift moves both, though not always by the same factor (see
// benchmark/README.md for what this removes and what it leaves).

#ifndef OSCAR_BENCHMARK_REFERENCE_H_
#define OSCAR_BENCHMARK_REFERENCE_H_

#include <cstdint>
#include <vector>

namespace oscar_bench {

/// About the kernel's median time on the host the bounds were set on (a
/// 4-vCPU Xeon VM, GCC 12, Release), so that reference seconds read as
/// that host's seconds on a typical minute.
inline constexpr double kReferenceSeconds = 0.025;

class HostReference {
 public:
  HostReference();

  /// Runs the kernel once (a dependent pointer chase through a 512 KiB
  /// cycle, which stays in a core's L2) and returns its wall seconds.
  double Sample();

 private:
  std::vector<uint32_t> next_;
  uint32_t position_ = 0;
};

/// `wall_s` in reference seconds, where `kernel_s` is the kernel's time
/// around the interval (the mean of a sample before and one after).
double ToReferenceSeconds(double wall_s, double kernel_s);

}  // namespace oscar_bench

#endif  // OSCAR_BENCHMARK_REFERENCE_H_
