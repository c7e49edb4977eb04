#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <sstream>

#include "sim/network.hpp"
#include "sim/scenario_registry.hpp"
#include "util/rng.hpp"

namespace arcadia::sim {
namespace {

/// Dumbbell: a - r1 === r2 - b, c - r1, d - r2. Trunk is the bottleneck.
struct Dumbbell {
  Topology topo;
  NodeId a, b, c, d, r1, r2;
  Dumbbell(Bandwidth access = Bandwidth::mbps(100),
           Bandwidth trunk = Bandwidth::mbps(10)) {
    r1 = topo.add_node("r1", NodeKind::Router);
    r2 = topo.add_node("r2", NodeKind::Router);
    a = topo.add_node("a", NodeKind::Host);
    b = topo.add_node("b", NodeKind::Host);
    c = topo.add_node("c", NodeKind::Host);
    d = topo.add_node("d", NodeKind::Host);
    topo.add_link(a, r1, access);
    topo.add_link(c, r1, access);
    topo.add_link(b, r2, access);
    topo.add_link(d, r2, access);
    topo.add_link(r1, r2, trunk);
    topo.compute_routes();
  }
};

TEST(TopologyTest, FindNode) {
  Dumbbell db;
  EXPECT_EQ(db.topo.find_node("a"), db.a);
  EXPECT_EQ(db.topo.find_node("nope"), kNoNode);
}

TEST(TopologyTest, DuplicateNodeNameThrows) {
  Topology topo;
  topo.add_node("x", NodeKind::Host);
  EXPECT_THROW(topo.add_node("x", NodeKind::Host), SimError);
}

TEST(TopologyTest, SelfLinkThrows) {
  Topology topo;
  NodeId x = topo.add_node("x", NodeKind::Host);
  EXPECT_THROW(topo.add_link(x, x, Bandwidth::mbps(1)), SimError);
}

TEST(TopologyTest, PathCrossesTrunk) {
  Dumbbell db;
  const auto& path = db.topo.path(db.a, db.b);
  EXPECT_EQ(path.size(), 3u);  // a->r1, r1->r2, r2->b
}

TEST(TopologyTest, PathToSelfIsEmpty) {
  Dumbbell db;
  EXPECT_TRUE(db.topo.path(db.a, db.a).empty());
}

TEST(TopologyTest, UnreachableThrows) {
  Topology topo;
  NodeId x = topo.add_node("x", NodeKind::Host);
  NodeId y = topo.add_node("y", NodeKind::Host);
  (void)y;
  topo.compute_routes();
  EXPECT_THROW(topo.path(x, y), SimError);
}

TEST(TopologyTest, MutatingFrozenTopologyThrows) {
  Dumbbell db;
  EXPECT_THROW(db.topo.add_node("z", NodeKind::Host), SimError);
}

TEST(TopologyTest, DirectedChannelsDistinct) {
  Dumbbell db;
  const auto& fwd = db.topo.path(db.a, db.b);
  const auto& rev = db.topo.path(db.b, db.a);
  ASSERT_EQ(fwd.size(), rev.size());
  for (ChannelId c : fwd) {
    for (ChannelId r : rev) EXPECT_NE(c, r);
  }
}

TEST(TopologyTest, RepeatComputeRoutesKeepsPathsAlive) {
  Dumbbell db;  // first compute_routes()
  const std::vector<ChannelId>* before = &db.topo.path(db.a, db.b);
  Simulator sim;
  FlowNetwork net(sim, db.topo);
  SimTime done = SimTime::infinity();
  net.start_transfer(db.a, db.b, DataSize::megabytes(1),
                     [&] { done = sim.now(); });
  db.topo.compute_routes();  // must not free the path the transfer holds
  EXPECT_EQ(db.topo.materialized_paths(), 1u);
  EXPECT_EQ(&db.topo.path(db.a, db.b), before);
  sim.run_until(SimTime::seconds(100));
  EXPECT_NEAR(done.as_seconds(), 8.0 * 1024 * 1024 / 1e7, 1e-6);
}

TEST(FlowNetworkTest, SingleTransferTakesNominalTime) {
  Simulator sim;
  Dumbbell db;
  FlowNetwork net(sim, db.topo);
  SimTime done;
  net.start_transfer(db.a, db.b, DataSize::megabytes(1),
                     [&] { done = sim.now(); });
  sim.run_until(SimTime::seconds(100));
  // 1 MB over a 10 Mbps trunk = 8388608 bits / 1e7 bps.
  EXPECT_NEAR(done.as_seconds(), 8.0 * 1024 * 1024 / 1e7, 1e-6);
}

TEST(FlowNetworkTest, TwoFlowsShareBottleneckFairly) {
  Simulator sim;
  Dumbbell db;
  FlowNetwork net(sim, db.topo);
  int completed = 0;
  SimTime last;
  for (int i = 0; i < 2; ++i) {
    net.start_transfer(i ? db.c : db.a, i ? db.d : db.b, DataSize::megabytes(1),
                       [&] {
                         ++completed;
                         last = sim.now();
                       });
  }
  sim.run_until(SimTime::seconds(100));
  EXPECT_EQ(completed, 2);
  // Each flow gets 5 Mbps; both finish together at twice the solo time.
  EXPECT_NEAR(last.as_seconds(), 2 * 8.0 * 1024 * 1024 / 1e7, 1e-6);
}

TEST(FlowNetworkTest, CompletionReschedulesWhenContentionEnds) {
  Simulator sim;
  Dumbbell db;
  FlowNetwork net(sim, db.topo);
  SimTime short_done, long_done;
  net.start_transfer(db.a, db.b, DataSize::megabytes(1),
                     [&] { long_done = sim.now(); });
  net.start_transfer(db.c, db.d, DataSize::bytes(1024 * 1024 / 2),
                     [&] { short_done = sim.now(); });
  sim.run_until(SimTime::seconds(100));
  // Short flow: 0.5 MB at 5 Mbps ~ 0.839 s. Long flow: 0.5 MB at 5 Mbps
  // then remaining 0.5 MB at full 10 Mbps. (Tolerance covers the integer-
  // microsecond clock.)
  EXPECT_NEAR(short_done.as_seconds(), 0.5 * 8 * 1024 * 1024 / 5e6, 1e-5);
  EXPECT_NEAR(long_done.as_seconds(),
              0.5 * 8 * 1024 * 1024 / 5e6 + 0.5 * 8 * 1024 * 1024 / 1e7, 1e-5);
}

TEST(FlowNetworkTest, CancelledTransferNeverCompletes) {
  Simulator sim;
  Dumbbell db;
  FlowNetwork net(sim, db.topo);
  bool fired = false;
  FlowId id = net.start_transfer(db.a, db.b, DataSize::megabytes(1),
                                 [&] { fired = true; });
  sim.schedule_at(SimTime::millis(10), [&] { net.cancel_transfer(id); });
  sim.run_until(SimTime::seconds(100));
  EXPECT_FALSE(fired);
  EXPECT_EQ(net.active_transfers(), 0u);
}

TEST(FlowNetworkTest, LoopbackDelivers) {
  Simulator sim;
  Dumbbell db;
  FlowNetwork net(sim, db.topo);
  bool fired = false;
  net.start_transfer(db.a, db.a, DataSize::megabytes(100), [&] { fired = true; });
  sim.run_until(SimTime::seconds(1));
  EXPECT_TRUE(fired);
}

TEST(FlowNetworkTest, BackgroundStealsCapacity) {
  Simulator sim;
  Dumbbell db;
  FlowNetwork net(sim, db.topo);
  FlowId bg = net.add_background(db.c, db.d);
  net.set_background_rate(bg, Bandwidth::mbps(9));
  SimTime done;
  net.start_transfer(db.a, db.b, DataSize::megabytes(1),
                     [&] { done = sim.now(); });
  sim.run_until(SimTime::seconds(100));
  // Only 1 Mbps left on the trunk for the transfer.
  EXPECT_NEAR(done.as_seconds(), 8.0 * 1024 * 1024 / 1e6, 1e-5);
}

TEST(FlowNetworkTest, OversubscribedBackgroundClampsToCapacity) {
  Simulator sim;
  Dumbbell db;
  FlowNetwork net(sim, db.topo);
  FlowId bg = net.add_background(db.c, db.d);
  net.set_background_rate(bg, Bandwidth::mbps(50));  // more than the trunk
  SimTime done = SimTime::infinity();
  net.start_transfer(db.a, db.b, DataSize::bytes(1250), [&] { done = sim.now(); });
  sim.run_until(SimTime::seconds(60));
  // The trickle guard (1 bps minimum) keeps the transfer finishing
  // eventually, but certainly not fast.
  EXPECT_GT(done.as_seconds(), 1.0);
}

TEST(FlowNetworkTest, AvailableBandwidthReflectsBackgroundAndFlows) {
  Simulator sim;
  Dumbbell db;
  FlowNetwork net(sim, db.topo);
  EXPECT_NEAR(net.available_bandwidth(db.a, db.b).as_mbps(), 10.0, 1e-9);
  FlowId bg = net.add_background(db.c, db.d);
  net.set_background_rate(bg, Bandwidth::mbps(9.95));
  EXPECT_NEAR(net.available_bandwidth(db.a, db.b).as_kbps(), 50.0, 1e-6);
  // A saturating transfer drives it to the floor.
  net.start_transfer(db.a, db.b, DataSize::megabytes(10), [] {});
  EXPECT_NEAR(net.available_bandwidth(db.a, db.b).as_bps(), 100.0, 1e-9);
}

TEST(FlowNetworkTest, PathUtilization) {
  Simulator sim;
  Dumbbell db;
  FlowNetwork net(sim, db.topo);
  EXPECT_DOUBLE_EQ(net.path_utilization(db.a, db.b), 0.0);
  FlowId bg = net.add_background(db.c, db.d);
  net.set_background_rate(bg, Bandwidth::mbps(5));
  EXPECT_NEAR(net.path_utilization(db.a, db.b), 0.5, 1e-9);
}

// ---- max-min fairness properties on random configurations ----

class MaxMinPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MaxMinPropertyTest, AllocationIsFeasibleAndNonWasteful) {
  Rng rng(GetParam());
  Simulator sim;
  // Random star-of-routers topology.
  Topology topo;
  const int routers = 3;
  const int hosts = 6;
  std::vector<NodeId> rs, hs;
  for (int i = 0; i < routers; ++i) {
    rs.push_back(topo.add_node("r" + std::to_string(i), NodeKind::Router));
  }
  for (int i = 1; i < routers; ++i) {
    topo.add_link(rs[0], rs[i], Bandwidth::mbps(rng.uniform(2.0, 20.0)));
  }
  for (int i = 0; i < hosts; ++i) {
    hs.push_back(topo.add_node("h" + std::to_string(i), NodeKind::Host));
    topo.add_link(hs[i], rs[static_cast<std::size_t>(rng.uniform_int(routers))],
                  Bandwidth::mbps(rng.uniform(2.0, 20.0)));
  }
  topo.compute_routes();
  FlowNetwork net(sim, topo);

  const int flows = 2 + static_cast<int>(rng.uniform_int(8));
  std::vector<FlowId> ids;
  std::vector<std::pair<NodeId, NodeId>> endpoints;
  for (int i = 0; i < flows; ++i) {
    NodeId src = hs[static_cast<std::size_t>(rng.uniform_int(hosts))];
    NodeId dst = src;
    while (dst == src) {
      dst = hs[static_cast<std::size_t>(rng.uniform_int(hosts))];
    }
    ids.push_back(net.start_transfer(src, dst, DataSize::megabytes(1000), [] {}));
    endpoints.emplace_back(src, dst);
  }

  // Feasibility: per-channel usage within capacity (small tolerance).
  std::vector<double> usage(topo.channel_count(), 0.0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    double rate = net.transfer_rate(ids[i]).as_bps();
    EXPECT_GT(rate, 0.0);
    for (ChannelId c : topo.path(endpoints[i].first, endpoints[i].second)) {
      usage[c] += rate;
    }
  }
  for (ChannelId c = 0; c < static_cast<ChannelId>(topo.channel_count()); ++c) {
    EXPECT_LE(usage[c], topo.channel_capacity(c).as_bps() * (1.0 + 1e-6));
  }

  // Non-wastefulness (max-min property): every flow crosses at least one
  // saturated channel (otherwise its rate could be raised).
  for (std::size_t i = 0; i < ids.size(); ++i) {
    bool bottlenecked = false;
    for (ChannelId c : topo.path(endpoints[i].first, endpoints[i].second)) {
      if (usage[c] >= topo.channel_capacity(c).as_bps() * (1.0 - 1e-6)) {
        bottlenecked = true;
        break;
      }
    }
    EXPECT_TRUE(bottlenecked) << "flow " << i << " is not bottlenecked";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, MaxMinPropertyTest,
                         ::testing::Range(1, 21));

// ---- differential oracle: FlowNetwork against the whole-topology allocator ----

/// The allocator and path queries as they were before FlowNetwork learned to
/// cache background capacity and water-fill only active channels: every call
/// rebuilds per-channel vectors over the whole topology. Kept verbatim as the
/// oracle the production allocator must match bit for bit.
class ReferenceFlowNetwork {
 public:
  ReferenceFlowNetwork(Simulator& sim, const Topology& topo)
      : sim_(sim), topo_(topo) {}

  FlowId start_transfer(NodeId src, NodeId dst, DataSize size,
                        std::function<void()> on_complete) {
    FlowId id = next_id_++;
    ++stats_.transfers_started;
    if (src == dst) {
      sim_.schedule_in(loopback_delay_, [cb = std::move(on_complete), this] {
        ++stats_.transfers_completed;
        cb();
      });
      return id;
    }
    Transfer t;
    t.src = src;
    t.dst = dst;
    t.remaining_bits = size.as_bits();
    t.last_update = sim_.now();
    t.on_complete = std::move(on_complete);
    t.path = &topo_.path(src, dst);
    transfers_.emplace(id, std::move(t));
    reallocate();
    return id;
  }

  void cancel_transfer(FlowId id) {
    auto it = transfers_.find(id);
    if (it == transfers_.end()) return;
    it->second.completion.cancel();
    transfers_.erase(it);
    reallocate();
  }

  FlowId add_background(NodeId src, NodeId dst) {
    if (src == dst) throw SimError("background flow with src == dst");
    FlowId id = next_id_++;
    Background b;
    b.src = src;
    b.dst = dst;
    b.path = &topo_.path(src, dst);
    backgrounds_.emplace(id, std::move(b));
    return id;
  }

  void set_background_rate(FlowId id, Bandwidth rate) {
    auto it = backgrounds_.find(id);
    if (it == backgrounds_.end()) throw SimError("unknown background flow");
    if (it->second.rate_bps == rate.as_bps()) return;
    it->second.rate_bps = rate.as_bps();
    reallocate();
  }

  Bandwidth transfer_rate(FlowId id) const {
    auto it = transfers_.find(id);
    return it == transfers_.end() ? Bandwidth::zero()
                                  : Bandwidth::bps(it->second.rate_bps);
  }
  std::size_t active_transfers() const { return transfers_.size(); }
  const FlowNetworkStats& stats() const { return stats_; }

  Bandwidth available_bandwidth(NodeId src, NodeId dst) const {
    if (src == dst) return Bandwidth::infinity();
    std::vector<double> residual = effective_capacity();
    for (const auto& [id, t] : transfers_) {
      for (ChannelId c : *t.path) residual[c] -= t.rate_bps;
    }
    double avail = std::numeric_limits<double>::infinity();
    for (ChannelId c : topo_.path(src, dst)) {
      avail = std::min(avail, residual[c]);
    }
    return Bandwidth::bps(std::max(avail, floor_.as_bps()));
  }

  double path_utilization(NodeId src, NodeId dst) const {
    if (src == dst) return 0.0;
    std::vector<double> used(topo_.channel_count(), 0.0);
    for (const auto& [id, b] : backgrounds_) {
      for (ChannelId c : *b.path) used[c] += b.rate_bps;
    }
    for (const auto& [id, t] : transfers_) {
      for (ChannelId c : *t.path) used[c] += t.rate_bps;
    }
    double worst = 0.0;
    for (ChannelId c : topo_.path(src, dst)) {
      double cap = topo_.channel_capacity(c).as_bps();
      if (cap > 0.0) worst = std::max(worst, std::min(used[c] / cap, 1.0));
    }
    return worst;
  }

 private:
  struct Transfer {
    NodeId src;
    NodeId dst;
    double remaining_bits;
    double rate_bps = 0.0;
    SimTime last_update;
    std::function<void()> on_complete;
    EventHandle completion;
    const std::vector<ChannelId>* path;
  };
  struct Background {
    NodeId src;
    NodeId dst;
    double rate_bps = 0.0;
    const std::vector<ChannelId>* path;
  };

  std::vector<double> effective_capacity() const {
    std::vector<double> eff(topo_.channel_count());
    for (ChannelId c = 0; c < static_cast<ChannelId>(eff.size()); ++c) {
      eff[c] = topo_.channel_capacity(c).as_bps();
    }
    std::vector<double> bg(eff.size(), 0.0);
    for (const auto& [id, b] : backgrounds_) {
      for (ChannelId c : *b.path) bg[c] += b.rate_bps;
    }
    for (std::size_t c = 0; c < eff.size(); ++c) {
      eff[c] = std::max(0.0, eff[c] - std::min(bg[c], eff[c]));
    }
    return eff;
  }

  void advance_progress() {
    const SimTime now = sim_.now();
    for (auto& [id, t] : transfers_) {
      double elapsed = (now - t.last_update).as_seconds();
      if (elapsed > 0.0) {
        t.remaining_bits =
            std::max(0.0, t.remaining_bits - t.rate_bps * elapsed);
      }
      t.last_update = now;
    }
  }

  void reallocate() {
    ++stats_.reallocations;
    advance_progress();

    std::vector<double> residual = effective_capacity();
    const double kTrickleBps = 1.0;

    std::vector<FlowId> unfrozen;
    unfrozen.reserve(transfers_.size());
    for (auto& [id, t] : transfers_) {
      t.rate_bps = 0.0;
      unfrozen.push_back(id);
    }

    std::vector<int> load(residual.size(), 0);
    while (!unfrozen.empty()) {
      ++stats_.waterfill_rounds;
      std::fill(load.begin(), load.end(), 0);
      for (FlowId id : unfrozen) {
        for (ChannelId c : *transfers_.at(id).path) ++load[c];
      }
      double share = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < residual.size(); ++c) {
        if (load[c] == 0) continue;
        share = std::min(share, std::max(residual[c], 0.0) / load[c]);
      }
      if (!std::isfinite(share)) break;
      share = std::max(share, kTrickleBps);
      std::vector<char> bottleneck(residual.size(), 0);
      for (std::size_t c = 0; c < residual.size(); ++c) {
        if (load[c] == 0) continue;
        if (std::max(residual[c], 0.0) / load[c] <=
            share * (1.0 + 1e-12) + 1e-9) {
          bottleneck[c] = 1;
        }
      }
      std::vector<FlowId> still;
      std::vector<FlowId> frozen_now;
      still.reserve(unfrozen.size());
      for (FlowId id : unfrozen) {
        Transfer& t = transfers_.at(id);
        bool crosses = false;
        for (ChannelId c : *t.path) {
          if (bottleneck[c]) {
            crosses = true;
            break;
          }
        }
        if (crosses) {
          frozen_now.push_back(id);
        } else {
          still.push_back(id);
        }
      }
      if (frozen_now.empty()) {
        frozen_now = std::move(still);
        still.clear();
      }
      for (FlowId id : frozen_now) {
        Transfer& t = transfers_.at(id);
        t.rate_bps = share;
        for (ChannelId c : *t.path) residual[c] -= share;
      }
      unfrozen = std::move(still);
    }

    for (auto& [id, t] : transfers_) schedule_completion(id, t);
  }

  void schedule_completion(FlowId id, Transfer& t) {
    t.completion.cancel();
    SimTime eta = transfer_time(DataSize::bytes(t.remaining_bits / 8.0),
                                Bandwidth::bps(t.rate_bps));
    if (eta.is_infinite()) return;
    t.completion = sim_.schedule_in(eta, [this, id] { complete_transfer(id); });
  }

  void complete_transfer(FlowId id) {
    auto it = transfers_.find(id);
    if (it == transfers_.end()) return;
    std::function<void()> cb = std::move(it->second.on_complete);
    transfers_.erase(it);
    ++stats_.transfers_completed;
    reallocate();
    if (cb) cb();
  }

  Simulator& sim_;
  const Topology& topo_;
  std::map<FlowId, Transfer> transfers_;
  std::map<FlowId, Background> backgrounds_;
  FlowId next_id_ = 1;
  Bandwidth floor_ = Bandwidth::bps(100.0);
  SimTime loopback_delay_ = SimTime::millis(1.0);
  FlowNetworkStats stats_;
};

/// Drives a FlowNetwork and a ReferenceFlowNetwork, each on its own
/// simulator, through the same seeded operation sequence and compares every
/// observable exactly (==, not NEAR) after each operation.
class DifferentialRig {
 public:
  DifferentialRig(const Topology& topo, std::vector<NodeId> hosts,
                  std::uint64_t seed)
      : topo_(topo),
        hosts_(std::move(hosts)),
        rng_(seed),
        net_(sim_, topo),
        ref_(ref_sim_, topo) {}

  void run(int ops) {
    for (int i = 0; i < ops; ++i) {
      step();
      ::testing::AssertionResult same = compare();
      ASSERT_TRUE(same) << "after operation " << i << " (" << last_op_ << ")";
    }
    // The sequence exercised the allocator, not just the bookkeeping.
    EXPECT_GT(net_.stats().transfers_completed, 0u);
    EXPECT_GT(net_.stats().waterfill_rounds, 0u);
  }

 private:
  NodeId pick_host() {
    return hosts_[static_cast<std::size_t>(rng_.uniform_int(hosts_.size()))];
  }

  void step() {
    const double u = rng_.uniform();
    if (u < 0.40 || (net_.active_transfers() == 0 && u < 0.6)) {
      NodeId src = pick_host();
      NodeId dst = rng_.bernoulli(0.05) ? src : pick_host();
      // 1 KB .. 4 MB: some finish within a step, some span many.
      DataSize size = DataSize::bytes(rng_.uniform(1e3, 4e6));
      FlowId a = net_.start_transfer(src, dst, size,
                                     [this] { done_.push_back(sim_.now()); });
      FlowId b = ref_.start_transfer(
          src, dst, size, [this] { ref_done_.push_back(ref_sim_.now()); });
      ids_match_ = ids_match_ && a == b;
      transfers_.push_back(a);
      last_op_ = "start";
    } else if (u < 0.55) {
      if (transfers_.empty()) return;
      FlowId id =
          transfers_[static_cast<std::size_t>(rng_.uniform_int(transfers_.size()))];
      net_.cancel_transfer(id);
      ref_.cancel_transfer(id);
      last_op_ = "cancel";
    } else if (u < 0.80) {
      SimTime until = sim_.now() + SimTime::seconds(rng_.uniform(0.001, 1.5));
      sim_.run_until(until);
      ref_sim_.run_until(until);
      last_op_ = "run_until";
    } else if (u < 0.85 || backgrounds_.empty()) {
      NodeId src = pick_host();
      NodeId dst = pick_host();
      if (src == dst) return;
      FlowId a = net_.add_background(src, dst);
      FlowId b = ref_.add_background(src, dst);
      ids_match_ = ids_match_ && a == b;
      backgrounds_.push_back(a);
      last_op_ = "add_background";
    } else {
      FlowId id = backgrounds_[static_cast<std::size_t>(
          rng_.uniform_int(backgrounds_.size()))];
      // Zero, partial and oversubscribing rates (the trickle guard path).
      const double pick = rng_.uniform();
      Bandwidth rate = pick < 0.15   ? Bandwidth::zero()
                       : pick < 0.3  ? Bandwidth::mbps(rng_.uniform(50, 500))
                                     : Bandwidth::mbps(rng_.uniform(0.1, 40));
      net_.set_background_rate(id, rate);
      ref_.set_background_rate(id, rate);
      last_op_ = "set_background_rate";
    }
  }

  ::testing::AssertionResult compare() const {
    auto fail = [](const std::string& what) {
      return ::testing::AssertionFailure() << what;
    };
    if (!ids_match_) return fail("flow ids diverged");
    if (sim_.now() != ref_sim_.now() || sim_.executed() != ref_sim_.executed()) {
      return fail("simulator clock or event count diverged");
    }
    if (done_ != ref_done_) return fail("completion times diverged");
    if (net_.active_transfers() != ref_.active_transfers()) {
      return fail("active transfer count diverged");
    }
    const FlowNetworkStats& a = net_.stats();
    const FlowNetworkStats& b = ref_.stats();
    if (a.reallocations != b.reallocations ||
        a.transfers_started != b.transfers_started ||
        a.transfers_completed != b.transfers_completed ||
        a.waterfill_rounds != b.waterfill_rounds) {
      return fail("FlowNetworkStats diverged");
    }
    for (FlowId id : transfers_) {
      if (net_.transfer_rate(id).as_bps() != ref_.transfer_rate(id).as_bps()) {
        std::ostringstream os;
        os.precision(17);
        os << "transfer_rate(" << id << "): " << net_.transfer_rate(id).as_bps()
           << " vs " << ref_.transfer_rate(id).as_bps();
        return fail(os.str());
      }
    }
    for (NodeId src : hosts_) {
      for (NodeId dst : hosts_) {
        if (net_.available_bandwidth(src, dst).as_bps() !=
                ref_.available_bandwidth(src, dst).as_bps() ||
            net_.path_utilization(src, dst) != ref_.path_utilization(src, dst)) {
          return fail("path query " + topo_.node_name(src) + " -> " +
                      topo_.node_name(dst) + " diverged");
        }
      }
    }
    return ::testing::AssertionSuccess();
  }

  const Topology& topo_;
  std::vector<NodeId> hosts_;
  Rng rng_;
  Simulator sim_;
  Simulator ref_sim_;
  FlowNetwork net_;
  ReferenceFlowNetwork ref_;
  std::vector<FlowId> transfers_;
  std::vector<FlowId> backgrounds_;
  std::vector<SimTime> done_;
  std::vector<SimTime> ref_done_;
  bool ids_match_ = true;
  std::string last_op_;
};

/// Random connected router graph (a spanning tree plus a few chords) with
/// hosts hanging off it. Capacities repeat often so water-fill rounds see
/// ties between bottleneck channels.
std::vector<NodeId> random_graph(Rng& rng, Topology& topo) {
  const int routers = 2 + static_cast<int>(rng.uniform_int(7));
  const int hosts = 3 + static_cast<int>(rng.uniform_int(8));
  auto capacity = [&rng] {
    static constexpr double kCommon[] = {1.0, 10.0, 10.0, 100.0};
    return Bandwidth::mbps(rng.bernoulli(0.5) ? kCommon[rng.uniform_int(4)]
                                              : rng.uniform(0.5, 100.0));
  };
  std::vector<NodeId> rs;
  for (int i = 0; i < routers; ++i) {
    rs.push_back(topo.add_node("r" + std::to_string(i), NodeKind::Router));
    if (i > 0) {
      topo.add_link(rs[static_cast<std::size_t>(rng.uniform_int(i))], rs.back(),
                    capacity());
    }
  }
  const int chords = static_cast<int>(rng.uniform_int(routers));
  for (int i = 0; i < chords; ++i) {
    NodeId a = rs[static_cast<std::size_t>(rng.uniform_int(routers))];
    NodeId b = rs[static_cast<std::size_t>(rng.uniform_int(routers))];
    if (a != b) topo.add_link(a, b, capacity());
  }
  std::vector<NodeId> hs;
  for (int i = 0; i < hosts; ++i) {
    hs.push_back(topo.add_node("h" + std::to_string(i), NodeKind::Host));
    topo.add_link(hs.back(), rs[static_cast<std::size_t>(rng.uniform_int(routers))],
                  capacity());
  }
  topo.compute_routes();
  return hs;
}

class FlowNetworkDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(FlowNetworkDifferentialTest, RandomTopologyMatchesReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  Topology topo;
  std::vector<NodeId> hosts = random_graph(rng, topo);
  DifferentialRig rig(topo, hosts, rng.next());
  rig.run(250);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowNetworkDifferentialTest,
                         ::testing::Range(1, 31));

TEST(FlowNetworkDifferentialTest, FleetTenantTopologyMatchesReference) {
  // One fleet-64x256 tenant: ~600 channels, of which a few dozen carry
  // flows — the sparse case the active-channel water-fill targets. Every
  // 20th host in creation order takes part: the request queue, servers and
  // clients across the pods.
  Simulator sim;
  ScenarioConfig config = scenario_defaults("fleet-64x256");
  Testbed tb = build_scenario(sim, "fleet-64x256", config);
  const Topology& topo = *tb.topo;
  ASSERT_GT(topo.channel_count(), 500u);
  std::vector<NodeId> hosts;
  int host = 0;
  for (NodeId n = 0; n < static_cast<NodeId>(topo.node_count()); ++n) {
    if (topo.node_kind(n) == NodeKind::Host && host++ % 20 == 0) {
      hosts.push_back(n);
    }
  }
  ASSERT_GT(hosts.size(), 12u);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    DifferentialRig rig(topo, hosts, seed);
    rig.run(150);
  }
}

}  // namespace
}  // namespace arcadia::sim
