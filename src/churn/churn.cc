#include "churn/churn.h"

#include <algorithm>

#include "common/string_util.h"

namespace oscar {
namespace {

/// Crashes `count` uniformly chosen alive peers, never the last one:
/// min(count, alive - 1) victims. Returns the number crashed.
size_t CrashUniform(Network* net, size_t count, Rng* rng) {
  std::vector<PeerId> alive = net->AlivePeers();
  const size_t to_crash =
      std::min(count, alive.empty() ? 0 : alive.size() - 1);
  // Partial Fisher-Yates: the first `to_crash` entries become a uniform
  // sample without replacement. The crashes themselves consume no rng,
  // so they run as one batch after the draws.
  for (size_t i = 0; i < to_crash; ++i) {
    const size_t j =
        i + static_cast<size_t>(rng->UniformInt(alive.size() - i));
    std::swap(alive[i], alive[j]);
  }
  alive.resize(to_crash);
  net->CrashMany(alive);
  return to_crash;
}

/// One churn round: `leaves` uniform crashes (never the last alive
/// peer) then `joins` wired joins. Shared by the synchronous rounds and
/// the event-scheduled handler.
Status OneChurnRound(Network* net, size_t leaves, size_t joins,
                     const KeyDistribution& keys,
                     const DegreeDistribution& degrees,
                     const RebuildFn& rebuild, Rng* rng, size_t* left,
                     size_t* joined) {
  *left += CrashUniform(net, leaves, rng);
  for (size_t i = 0; i < joins; ++i) {
    const PeerId id = net->Join(keys.Sample(rng), degrees.Sample(rng));
    const Status status = rebuild(net, id, rng);
    if (!status.ok()) return status;
    ++*joined;
  }
  return Status::Ok();
}

}  // namespace

Result<size_t> CrashFraction(Network* net, double fraction, Rng* rng) {
  if (fraction < 0.0 || fraction >= 1.0) {
    return Status::Error(
        StrCat("crash fraction must be in [0, 1), got ", fraction));
  }
  return CrashUniform(
      net,
      static_cast<size_t>(fraction * static_cast<double>(net->alive_count())),
      rng);
}

Result<RollingChurnReport> RollingChurn(Network* net,
                                        const RollingChurnOptions& options,
                                        const KeyDistribution& keys,
                                        const DegreeDistribution& degrees,
                                        const RebuildFn& rebuild, Rng* rng) {
  if (options.rounds < 0) {
    return Status::Error("rolling churn: negative round count");
  }
  if (!rebuild) {
    return Status::Error("rolling churn: missing rebuild callback");
  }
  RollingChurnReport report;
  for (int round = 0; round < options.rounds; ++round) {
    const Status status =
        OneChurnRound(net, options.leaves_per_round, options.joins_per_round,
                      keys, degrees, rebuild, rng, &report.left,
                      &report.joined);
    if (!status.ok()) return status;
  }
  return report;
}

Result<size_t> CrashSegment(Network* net, KeyId from, double span) {
  if (span < 0.0 || span >= 1.0) {
    return Status::Error(
        StrCat("crash segment: span must be in [0, 1), got ", span));
  }
  const KeyId to = from.OffsetBy(span);
  std::vector<PeerId> victims;
  for (PeerId id : net->AlivePeers()) {
    if (InClockwiseSegment(net->key(id), from, to)) {
      victims.push_back(id);
    }
  }
  // A region covering everyone still leaves one survivor (ring-order
  // last), mirroring CrashFraction's guarantee.
  if (victims.size() == net->alive_count() && !victims.empty()) {
    victims.pop_back();
  }
  net->CrashMany(victims);
  return victims.size();
}

void ScheduleChurn(EventEngine* engine, Network* net,
                   const ChurnScheduleOptions& options,
                   const KeyDistribution& keys,
                   const DegreeDistribution& degrees, const RebuildFn& rebuild,
                   Rng* rng, ChurnScheduleReport* report) {
  for (int event = 0; event < options.events; ++event) {
    const SimTime at =
        options.start_ms + static_cast<double>(event) * options.interval_ms;
    engine->ScheduleAt(at, [net, options, &keys, &degrees, rebuild, rng,
                            report] {
      if (!report->status.ok()) return;  // A rebuild already failed.
      report->status = OneChurnRound(
          net, options.leaves_per_event, options.joins_per_event, keys,
          degrees, rebuild, rng, &report->left, &report->joined);
    });
  }
}

}  // namespace oscar
