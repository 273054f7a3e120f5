// A minimal worker pool for embarrassingly parallel, determinism-
// critical fan-out: ParallelFor runs fn(i) for every i in [0, count)
// on up to `threads` OS threads, with workers pulling indices from a
// shared atomic counter. Callers own determinism by writing results
// into per-index slots and reducing them in index order afterwards —
// the pool guarantees only that every index runs exactly once.
//
// Workers are spawned per call rather than parked on a queue: the unit
// of work here is a checkpoint-scale batch (thousands of peers, each
// costing ~100+ sampled walk steps), so thread start-up is noise. The
// thread count comes from the caller, typically resolved once via
// ThreadCountFromEnv() (OSCAR_THREADS, default 1 — single-threaded
// unless the operator opts in).

#ifndef OSCAR_COMMON_THREAD_POOL_H_
#define OSCAR_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace oscar {

/// Runs fn(i) for every i in [0, count), using up to `threads` OS
/// threads (the calling thread counts as one). threads <= 1 runs
/// inline with zero overhead. `fn` must be safe to invoke concurrently
/// from distinct threads on distinct indices; no index runs twice.
void ParallelFor(uint32_t threads, size_t count,
                 const std::function<void(size_t)>& fn);

/// As ParallelFor, but fn(worker, i) also receives the dense index of
/// the worker thread executing it (0 = the calling thread, worker <
/// threads). The worker index is stable for the whole batch, so
/// per-worker scratch state (e.g. the serve route phase's steppers) is
/// only ever touched by one thread, with no locks.
void ParallelForWorkers(uint32_t threads, size_t count,
                        const std::function<void(uint32_t, size_t)>& fn);

/// Worker count from OSCAR_THREADS. Unset, empty, non-numeric, signed,
/// zero, or above 256 all mean 1 (the deterministic-by-construction
/// default; the 256 ceiling keeps a typo from fork-bombing the host).
uint32_t ThreadCountFromEnv();

}  // namespace oscar

#endif  // OSCAR_COMMON_THREAD_POOL_H_
