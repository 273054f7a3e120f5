// Pluggable admission control for the serving layer: given how deep
// the wait queue is and how much traffic is already in flight for the
// target's owner peer, decide whether a newly arrived lookup enters
// the system, and how long it may wait before being shed.
//
// Policies are deliberately pure decision tables over two gauges —
// queue depth and per-peer in-flight — and read nothing else. Their
// one caller, LoadGenerator's serve phase, feeds them the modeled
// virtual-time depths of its queueing simulation. The catalog:
//
//   none       admit everything, wait forever (the unprotected
//              baseline — under overload the queue and tail latency
//              grow without bound)
//   drop-tail  bounded wait queue; arrivals beyond queue_capacity are
//              refused at the door (classic bounded-buffer backpressure:
//              tail latency capped, work lost at the edge)
//   timeout    admit everything, but shed any lookup still queued
//              after timeout_ms (deadline-aware shedding: spends queue
//              memory to avoid doing work nobody is still waiting for)
//   peer-cap   refuse a lookup when its owner peer already has
//              per_peer_cap lookups queued or in service (hot-spot
//              protection: under Zipf skew only the hot owners shed,
//              the long tail keeps serving)

#ifndef OSCAR_SERVE_ADMISSION_H_
#define OSCAR_SERVE_ADMISSION_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace oscar {

struct AdmissionOptions {
  size_t queue_capacity = 4096;  // drop-tail's wait-queue bound.
  double timeout_ms = 50.0;      // timeout's max queue wait.
  size_t per_peer_cap = 64;      // peer-cap's per-owner in-flight bound.
};

class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;

  virtual std::string name() const = 0;

  /// Admit a lookup arriving when `queue_depth` lookups wait ahead of
  /// it and `peer_in_flight` lookups for the same owner peer are
  /// queued or in service.
  virtual bool Admit(size_t queue_depth, size_t peer_in_flight) const = 0;

  /// Maximum queue wait before an admitted lookup is shed; infinity
  /// means never.
  virtual double QueueTimeoutMs() const;
};

using AdmissionPolicyPtr = std::unique_ptr<AdmissionPolicy>;

/// The policy names, in catalog order.
const std::vector<std::string>& AdmissionCatalog();

/// Factory over the catalog: "none" | "drop-tail" | "timeout" |
/// "peer-cap". Unknown names are an error naming the catalog.
Result<AdmissionPolicyPtr> MakeAdmissionPolicy(
    const std::string& name, const AdmissionOptions& options);

}  // namespace oscar

#endif  // OSCAR_SERVE_ADMISSION_H_
