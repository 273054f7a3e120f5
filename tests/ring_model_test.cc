// Model-based tests of the ring index and of the mutable Network over
// it. Fixed seeds drive random operation sequences; after every
// operation the structure must agree with a naive reference model (a
// std::set of ring entries, plus per-peer link rows for the Network),
// and its position index with the model's order. Key pools are tiny
// and include both sides of the seam (0 and UINT64_MAX), so duplicate
// keys and wrap-around ownership come up on almost every step.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/key_id.h"
#include "core/network.h"
#include "core/ring.h"
#include "core/rng.h"
#include "core/topology_snapshot.h"
#include "overlay/overlay.h"

namespace oscar {
namespace {

using Model = std::set<Ring::Entry>;

constexpr PeerId kMaxId = 40;  // Ring ids are drawn from [0, kMaxId).

// A small key pool: the seam's two ends, a few fixed keys drawn often
// enough to collide, and fresh random keys.
uint64_t DrawKey(Rng* rng) {
  static constexpr uint64_t kPool[] = {0, UINT64_MAX, 1, UINT64_MAX - 1,
                                       uint64_t{1} << 63, 12345};
  const uint64_t pick = rng->UniformInt(10);
  return pick < 6 ? kPool[pick] : rng->Next();
}

std::optional<PeerId> ModelNeighbor(const std::vector<Ring::Entry>& order,
                                    PeerId id, bool clockwise) {
  const size_t n = order.size();
  for (size_t i = 0; i < n; ++i) {
    if (order[i].id != id) continue;
    if (n < 2) return std::nullopt;
    return order[clockwise ? (i + 1) % n : (i + n - 1) % n].id;
  }
  return std::nullopt;
}

// Every check the position index promises, against the model.
void ExpectRingMatchesModel(const Ring& ring, const Model& model, Rng* rng) {
  const std::vector<Ring::Entry> order(model.begin(), model.end());
  ASSERT_EQ(ring.entries(), order);
  std::vector<uint32_t> expected_pos(kMaxId + 2, Ring::kNotOnRing);
  for (size_t i = 0; i < order.size(); ++i) {
    expected_pos[order[i].id] = static_cast<uint32_t>(i);
  }
  for (PeerId id = 0; id < expected_pos.size(); ++id) {
    ASSERT_EQ(ring.PosOf(id), expected_pos[id]) << "id " << id;
    for (const bool clockwise : {true, false}) {
      ASSERT_EQ(ring.Neighbor(id, clockwise),
                ModelNeighbor(order, id, clockwise))
          << "id " << id << (clockwise ? " successor" : " predecessor");
    }
  }
  if (order.empty()) return;
  std::vector<uint64_t> keys = {0, UINT64_MAX, uint64_t{1} << 63};
  for (int i = 0; i < 6; ++i) keys.push_back(rng->Next());
  keys.push_back(order[rng->UniformInt(order.size())].key_raw);
  for (const uint64_t raw : keys) {
    const KeyId key = KeyId::FromRaw(raw);
    const PeerId owner = *ring.OwnerOf(key);
    for (const Ring::Entry& entry : order) {
      ASSERT_EQ(ring.OwnsAt(ring.PosOf(entry.id), key), owner == entry.id)
          << "id " << entry.id << ", key " << raw;
    }
  }
}

// Ids in [0, kMaxId) that are not on the ring, in id order.
std::vector<PeerId> FreeIds(const Model& model) {
  std::vector<uint8_t> used(kMaxId, 0);
  for (const Ring::Entry& entry : model) used[entry.id] = 1;
  std::vector<PeerId> free;
  for (PeerId id = 0; id < kMaxId; ++id) {
    if (!used[id]) free.push_back(id);
  }
  return free;
}

TEST(RingModel, RandomOperationsKeepEntriesAndPositionsExact) {
  for (uint64_t seed = 42; seed <= 49; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    Ring ring;
    Model model;
    for (int step = 0; step < 300; ++step) {
      SCOPED_TRACE(testing::Message() << "step " << step);
      std::vector<PeerId> free = FreeIds(model);
      switch (rng.UniformInt(6)) {
        case 0: {  // Insert.
          if (free.empty()) break;
          const Ring::Entry entry{DrawKey(&rng),
                                  free[rng.UniformInt(free.size())]};
          ring.Insert(KeyId::FromRaw(entry.key_raw), entry.id);
          model.insert(entry);
          break;
        }
        case 1:    // InsertMany, k = 1.
        case 2: {  // InsertMany, k > 1 (up to 6).
          const size_t k =
              rng.UniformInt(2) == 0 ? 1 : 2 + rng.UniformInt(5);
          std::vector<Ring::Entry> added;
          for (size_t i = 0; i < k && !free.empty(); ++i) {
            const size_t pick = rng.UniformInt(free.size());
            added.push_back({DrawKey(&rng), free[pick]});
            free.erase(free.begin() + static_cast<long>(pick));
          }
          model.insert(added.begin(), added.end());
          ring.InsertMany(std::move(added));
          break;
        }
        case 3: {  // Remove a present entry (a single-id filter).
          if (model.empty()) break;
          auto it = model.begin();
          std::advance(it, static_cast<long>(rng.UniformInt(model.size())));
          const PeerId id = it->id;
          ring.RemoveIdsIf([id](PeerId other) { return other == id; });
          model.erase(it);
          break;
        }
        case 4: {  // Remove an absent id, possibly past the index's end.
          const PeerId id = static_cast<PeerId>(rng.UniformInt(kMaxId + 2));
          if (std::any_of(model.begin(), model.end(),
                          [id](const Ring::Entry& e) { return e.id == id; })) {
            break;
          }
          ring.RemoveIdsIf([id](PeerId other) { return other == id; });
          break;
        }
        case 5: {  // RemoveIdsIf over a random id subset.
          // One time in eight the whole ring goes.
          const uint64_t mask =
              rng.UniformInt(8) == 0 ? UINT64_MAX : rng.Next();
          const auto doomed = [&](PeerId id) {
            return ((mask >> id) & 1) != 0;
          };
          ring.RemoveIdsIf(doomed);
          for (auto it = model.begin(); it != model.end();) {
            it = doomed(it->id) ? model.erase(it) : std::next(it);
          }
          break;
        }
      }
      ExpectRingMatchesModel(ring, model, &rng);
      if (testing::Test::HasFatalFailure()) return;
    }
  }
}

// Naive link state of a Network: per-peer ordered out-rows (which may
// dangle to dead peers) and in-sets of the alive holders, written
// straight from the mutators' documented contracts.
struct LinkModel {
  std::vector<DegreeCaps> caps;
  std::vector<bool> alive;
  std::vector<std::vector<PeerId>> out;
  std::vector<std::set<PeerId>> in;

  void Join(DegreeCaps peer_caps) {
    caps.push_back(peer_caps);
    alive.push_back(true);
    out.emplace_back();
    in.emplace_back();
  }
  void ClearLongLinks(PeerId id) {
    for (PeerId target : out[id]) {
      if (alive[target]) in[target].erase(id);
    }
    out[id].clear();
  }
  void Crash(PeerId id) {
    if (!alive[id]) return;
    ClearLongLinks(id);
    alive[id] = false;
    in[id].clear();
  }
  bool AddLongLink(PeerId from, PeerId to) {
    if (from == to || !alive[from] || !alive[to] ||
        out[from].size() >= caps[from].max_out ||
        in[to].size() >= caps[to].max_in ||
        std::count(out[from].begin(), out[from].end(), to) != 0) {
      return false;
    }
    out[from].push_back(to);
    in[to].insert(from);
    return true;
  }
  void ClearAllLongLinks() {
    for (PeerId id = 0; id < out.size(); ++id) {
      out[id].clear();
      in[id].clear();
    }
  }
  size_t PruneDeadLinks(PeerId id) {
    const size_t before = out[id].size();
    out[id].erase(std::remove_if(out[id].begin(), out[id].end(),
                                 [&](PeerId t) { return !alive[t]; }),
                  out[id].end());
    return before - out[id].size();
  }
  // Dead targets in the ordered out row.
  uint32_t Dangling(PeerId id) const {
    return static_cast<uint32_t>(
        std::count_if(out[id].begin(), out[id].end(),
                      [&](PeerId t) { return !alive[t]; }));
  }
  double RelativeInLoad(PeerId id) const {
    if (caps[id].max_in == 0) return 1.0;
    return static_cast<double>(in[id].size()) / caps[id].max_in;
  }
  // Each candidate pair goes to its less-loaded peer first, then to the
  // other one, until `budget` links landed.
  size_t ApplyLinkPlan(PeerId from, const std::vector<LinkCandidate>& plan,
                       uint32_t budget) {
    size_t added = 0;
    for (const LinkCandidate& c : plan) {
      if (added >= budget) break;
      const bool alternate_first =
          RelativeInLoad(c.alternate) < RelativeInLoad(c.primary);
      const PeerId first = alternate_first ? c.alternate : c.primary;
      const PeerId second = alternate_first ? c.primary : c.alternate;
      if (AddLongLink(from, first) || AddLongLink(from, second)) ++added;
    }
    return added;
  }
};

void ExpectLinksMatchModel(const Network& net, const LinkModel& links) {
  ASSERT_EQ(net.size(), links.out.size());
  for (PeerId id = 0; id < net.size(); ++id) {
    const PeerSpan out = net.OutLinks(id);
    ASSERT_EQ(std::vector<PeerId>(out.begin(), out.end()), links.out[id])
        << "out row of " << id;
    const PeerSpan in = net.InLinks(id);
    std::vector<PeerId> in_sorted(in.begin(), in.end());
    std::sort(in_sorted.begin(), in_sorted.end());
    ASSERT_EQ(in_sorted,
              std::vector<PeerId>(links.in[id].begin(), links.in[id].end()))
        << "in row of " << id;
    ASSERT_EQ(net.dangling_out(id), links.Dangling(id))
        << "dangling count of " << id;
  }
}

// A candidate list over [0, n): p2c pairs, self, dead and repeated
// candidates, with a budget from 0 to one past the list length.
std::vector<LinkCandidate> DrawPlan(PeerId self, size_t n, Rng* rng,
                                    uint32_t* budget) {
  std::vector<LinkCandidate> plan;
  const size_t length = 1 + rng->UniformInt(7);
  for (size_t i = 0; i < length; ++i) {
    const auto draw = [&] {
      switch (rng->UniformInt(6)) {
        case 0:
          return self;
        case 1:
          if (!plan.empty()) {
            return plan[rng->UniformInt(plan.size())].primary;
          }
          [[fallthrough]];
        default:
          return static_cast<PeerId>(rng->UniformInt(n));
      }
    };
    LinkCandidate candidate;
    candidate.primary = draw();
    candidate.alternate =
        rng->UniformInt(2) == 0 ? candidate.primary : draw();
    plan.push_back(candidate);
  }
  *budget = static_cast<uint32_t>(rng->UniformInt(length + 2));
  return plan;
}

// Join, JoinMany, one- and many-victim CrashMany, every long-link
// mutator, freezes, and full and delta RestoreInto on one Network, with
// CheckInvariants (ring order, the position index, link reciprocity)
// after every step, the ring compared with a model of the alive peers
// and every link row and dangling count with the LinkModel.
TEST(NetworkModel, RandomLifecycleKeepsInvariants) {
  for (uint64_t seed = 42; seed <= 45; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    Network net;
    Model model;
    LinkModel links;
    std::optional<TopologySnapshot> snap;
    Model snap_model;
    LinkModel snap_links;
    const DegreeCaps caps{3, 3};
    for (int step = 0; step < 400; ++step) {
      SCOPED_TRACE(testing::Message() << "step " << step);
      const size_t n = net.size();
      switch (rng.UniformInt(13)) {
        case 0: {  // Join.
          const KeyId key = KeyId::FromRaw(DrawKey(&rng));
          const PeerId id = net.Join(key, caps);
          model.insert({key.raw, id});
          links.Join(caps);
          break;
        }
        case 1: {  // JoinMany, k in [1, 5].
          const size_t k = 1 + rng.UniformInt(5);
          std::vector<KeyId> keys;
          for (size_t i = 0; i < k; ++i) {
            keys.push_back(KeyId::FromRaw(DrawKey(&rng)));
          }
          const PeerId first =
              net.JoinMany(keys, std::vector<DegreeCaps>(k, caps));
          for (size_t i = 0; i < k; ++i) {
            model.insert({keys[i].raw, static_cast<PeerId>(first + i)});
            links.Join(caps);
          }
          break;
        }
        case 2: {  // Crash one peer, alive or already dead.
          if (n == 0) break;
          const PeerId id = static_cast<PeerId>(rng.UniformInt(n));
          net.CrashMany({id});
          model.erase({net.key(id).raw, id});
          links.Crash(id);
          break;
        }
        case 3: {  // CrashMany with repeats and dead victims.
          if (n == 0) break;
          std::vector<PeerId> victims;
          for (uint64_t i = 0, k = 1 + rng.UniformInt(4); i < k; ++i) {
            victims.push_back(static_cast<PeerId>(rng.UniformInt(n)));
          }
          net.CrashMany(victims);
          for (PeerId id : victims) {
            model.erase({net.key(id).raw, id});
            links.Crash(id);
          }
          break;
        }
        case 4: {  // A few long links between random peers.
          if (n < 2) break;
          for (int i = 0; i < 4; ++i) {
            const PeerId from = static_cast<PeerId>(rng.UniformInt(n));
            const PeerId to = static_cast<PeerId>(rng.UniformInt(n));
            ASSERT_EQ(net.AddLongLink(from, to), links.AddLongLink(from, to))
                << from << " -> " << to;
          }
          break;
        }
        case 5:  // Freeze.
          snap.emplace(net);
          snap_model = model;
          snap_links = links;
          ASSERT_TRUE(snap->Validate().ok()) << snap->Validate().message();
          for (PeerId id = 0; id < snap->size(); ++id) {
            ASSERT_EQ(snap->dangling_out(id), links.Dangling(id))
                << "frozen dangling count of " << id;
          }
          break;
        case 6: {  // RestoreInto the working network: delta once armed.
          if (!snap.has_value()) break;
          snap->RestoreInto(&net);
          model = snap_model;
          links = snap_links;
          const Status identity = snap->CheckRestoreIdentity(net);
          ASSERT_TRUE(identity.ok()) << identity.message();
          break;
        }
        case 7: {  // Full RestoreInto a fresh network, which replaces it.
          if (!snap.has_value()) break;
          Network fresh;
          snap->RestoreInto(&fresh);
          net = std::move(fresh);
          model = snap_model;
          links = snap_links;
          break;
        }
        case 8: {  // ClearLongLinks of any peer, alive or dead.
          if (n == 0) break;
          const PeerId id = static_cast<PeerId>(rng.UniformInt(n));
          net.ClearLongLinks(id);
          links.ClearLongLinks(id);
          break;
        }
        case 9:  // ClearAllLongLinks.
          net.ClearAllLongLinks();
          links.ClearAllLongLinks();
          break;
        case 10: {  // PruneDeadLinks of any peer.
          if (n == 0) break;
          const PeerId id = static_cast<PeerId>(rng.UniformInt(n));
          ASSERT_EQ(net.PruneDeadLinks(id), links.PruneDeadLinks(id));
          break;
        }
        case 11:
        case 12: {  // ApplyLinkPlan from any peer.
          if (n == 0) break;
          const PeerId from = static_cast<PeerId>(rng.UniformInt(n));
          uint32_t budget = 0;
          const std::vector<LinkCandidate> plan =
              DrawPlan(from, n, &rng, &budget);
          ASSERT_EQ(net.ApplyLinkPlan(from, plan, budget),
                    links.ApplyLinkPlan(from, plan, budget));
          break;
        }
      }
      const Status status = net.CheckInvariants();
      ASSERT_TRUE(status.ok()) << status.message();
      ExpectLinksMatchModel(net, links);
      if (testing::Test::HasFatalFailure()) return;
      ASSERT_EQ(net.ring().entries(),
                std::vector<Ring::Entry>(model.begin(), model.end()));
      for (PeerId id = 0; id < net.size(); ++id) {
        ASSERT_EQ(net.SuccessorOf(id), net.ring().Neighbor(id, true));
        ASSERT_EQ(net.alive(id), net.ring().PosOf(id) != Ring::kNotOnRing);
      }
    }
  }
}

}  // namespace
}  // namespace oscar
