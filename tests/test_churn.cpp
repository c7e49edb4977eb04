// Long-horizon churn: the adaptation loop must stay stable and consistent
// under schedules the calibration was never tuned for — randomized
// competition steps and repeated stress pulses over a 3x-longer run.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "sim/network.hpp"
#include "util/deterministic_rng.hpp"

namespace arcadia {
namespace {

class ChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnTest, AdaptationLoopSurvivesRandomizedSchedules) {
  Rng rng(GetParam());
  core::ExperimentOptions opt;
  opt.adaptation = true;
  opt.scenario.seed = GetParam();
  opt.scenario.horizon = SimTime::seconds(3600);
  // Random phase boundaries and competition intensities.
  double q = rng.uniform(60.0, 180.0);
  double s0 = rng.uniform(400.0, 900.0);
  double s1 = s0 + rng.uniform(200.0, 900.0);
  opt.scenario.quiescent_end = SimTime::seconds(q);
  opt.scenario.stress_start = SimTime::seconds(s0);
  opt.scenario.stress_end = SimTime::seconds(s1);
  opt.scenario.stress_rate_hz = rng.uniform(1.5, 2.8);
  opt.scenario.comp_sg1_phase1_mbps = rng.uniform(9.0, 9.999);
  opt.scenario.comp_sg1_stress_mbps = rng.uniform(2.0, 9.0);
  opt.scenario.comp_sg2_phase1_mbps = rng.uniform(0.5, 5.0);

  core::ExperimentResult r = core::run_experiment(opt);

  // The loop ran and did not wedge: requests kept flowing to the end.
  EXPECT_GT(r.responses_completed, 0u);
  for (const auto& c : r.clients) {
    ASSERT_TRUE(c.raw_latency.last_time().has_value());
    EXPECT_GT(*c.raw_latency.last_time(), SimTime::seconds(3500));
  }
  // Repairs are bounded (no runaway repair storm): the engine serializes
  // ~30 s repairs, so an hour admits at most ~120; damping keeps it far
  // lower.
  EXPECT_LT(r.repairs.size(), 100u);
  // Every record is terminal or still in flight at the horizon.
  int in_flight = 0;
  for (const auto& rec : r.repairs) {
    if (!rec.finished) {
      EXPECT_TRUE(rec.committed);
      ++in_flight;
    }
  }
  EXPECT_LE(in_flight, 1);
  // Model/runtime correspondence unless a repair is still mid-flight.
  if (in_flight == 0) {
    EXPECT_TRUE(r.consistency_issues.empty())
        << r.consistency_issues.front();
  }
  // The recruited-server population stays within the physical pool.
  int active_spares = 0;
  for (const auto& ev : r.server_events) {
    active_spares += ev.active ? 1 : -1;
    EXPECT_GE(active_spares, 0);
    EXPECT_LE(active_spares, 2);  // only S4 and S7 exist
  }
}

INSTANTIATE_TEST_SUITE_P(Schedules, ChurnTest,
                         ::testing::Values(3, 17, 29, 71));

TEST(FlowChurnTest, RandomArrivalsAndCancellationsKeepAllocatorSane) {
  Rng rng(12345);
  sim::Simulator sim;
  sim::Topology topo;
  auto r1 = topo.add_node("r1", sim::NodeKind::Router);
  auto r2 = topo.add_node("r2", sim::NodeKind::Router);
  auto r3 = topo.add_node("r3", sim::NodeKind::Router);
  topo.add_link(r1, r2, Bandwidth::mbps(10));
  topo.add_link(r2, r3, Bandwidth::mbps(5));
  std::vector<sim::NodeId> hosts;
  for (int i = 0; i < 6; ++i) {
    hosts.push_back(topo.add_node("h" + std::to_string(i), sim::NodeKind::Host));
    topo.add_link(hosts.back(), i < 2 ? r1 : (i < 4 ? r2 : r3),
                  Bandwidth::mbps(20));
  }
  topo.compute_routes();
  sim::FlowNetwork net(sim, topo);

  std::uint64_t completed = 0;
  std::vector<sim::FlowId> live;
  // 400 random arrivals; a third get cancelled shortly after starting.
  for (int i = 0; i < 400; ++i) {
    SimTime at = SimTime::seconds(rng.uniform(0.0, 120.0));
    sim.schedule_at(at, [&, i] {
      auto src = hosts[static_cast<std::size_t>(rng.uniform_int(6))];
      auto dst = src;
      while (dst == src) {
        dst = hosts[static_cast<std::size_t>(rng.uniform_int(6))];
      }
      sim::FlowId id = net.start_transfer(
          src, dst, DataSize::kilobytes(rng.uniform(10.0, 2000.0)),
          [&completed] { ++completed; });
      if (i % 3 == 0) {
        sim.schedule_in(SimTime::millis(rng.uniform(1.0, 500.0)),
                        [&net, id] { net.cancel_transfer(id); });
      }
    });
  }
  sim.run_until(SimTime::minutes(60));
  // Everything either completed or was cancelled; nothing is stuck.
  EXPECT_EQ(net.active_transfers(), 0u);
  EXPECT_GT(completed, 200u);
  EXPECT_LT(completed, 400u);
  EXPECT_EQ(net.stats().transfers_started, 400u);
}

TEST(FlowChurnTest, BackgroundRateChurnNeverBreaksAvailability) {
  Rng rng(777);
  sim::Simulator sim;
  sim::Topology topo;
  auto r1 = topo.add_node("r1", sim::NodeKind::Router);
  auto a = topo.add_node("a", sim::NodeKind::Host);
  auto b = topo.add_node("b", sim::NodeKind::Host);
  topo.add_link(a, r1, Bandwidth::mbps(10));
  topo.add_link(b, r1, Bandwidth::mbps(10));
  topo.compute_routes();
  sim::FlowNetwork net(sim, topo);
  auto bg = net.add_background(a, b);
  for (int i = 0; i < 200; ++i) {
    sim.schedule_at(SimTime::seconds(i * 0.5), [&net, bg, &rng] {
      net.set_background_rate(bg, Bandwidth::mbps(rng.uniform(0.0, 15.0)));
    });
    // Availability is always within [floor, capacity].
    sim.schedule_at(SimTime::seconds(i * 0.5 + 0.25), [&net, a, b] {
      double avail = net.available_bandwidth(a, b).as_bps();
      EXPECT_GE(avail, 100.0);
      EXPECT_LE(avail, 1e7 + 1.0);
    });
  }
  sim.run_until(SimTime::seconds(120));
}

}  // namespace
}  // namespace arcadia
