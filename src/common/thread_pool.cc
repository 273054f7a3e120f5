#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "common/string_util.h"

namespace oscar {

void ParallelForWorkers(uint32_t threads, size_t count,
                        const std::function<void(uint32_t, size_t)>& fn) {
  if (count == 0) return;
  const uint32_t workers = static_cast<uint32_t>(
      std::min<size_t>(std::max(1u, threads), count));
  if (workers == 1) {
    for (size_t i = 0; i < count; ++i) fn(0, i);
    return;
  }
  // Dynamic index stealing: per-index work is highly variable (a walk
  // can hit its stride test early or burn the whole rejection budget),
  // so static striping would leave the fast workers idle.
  std::atomic<size_t> next{0};
  const auto drain = [&](uint32_t worker) {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < count;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(worker, i);
    }
  };
  std::vector<std::thread> extra;
  extra.reserve(workers - 1);
  for (uint32_t t = 1; t < workers; ++t) {
    extra.emplace_back(drain, t);
  }
  drain(0);  // The calling thread is worker 0.
  for (std::thread& thread : extra) thread.join();
}

void ParallelFor(uint32_t threads, size_t count,
                 const std::function<void(size_t)>& fn) {
  ParallelForWorkers(threads, count,
                     [&fn](uint32_t, size_t i) { fn(i); });
}

uint32_t ThreadCountFromEnv() {
  const char* value = std::getenv("OSCAR_THREADS");
  uint64_t parsed = 0;
  if (value == nullptr || !ParseUint(value, &parsed) || parsed == 0 ||
      parsed > 256) {
    return 1;
  }
  return static_cast<uint32_t>(parsed);
}

}  // namespace oscar
