// Framework wiring: gauge reports delivered on the gauge bus update the
// model (malformed ones are counted and ignored), the architecture manager
// triggers repairs, the Remos pre-query behaviour, and the gauge
// deployment inventory.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "monitor/topics.hpp"
#include "sim/scenario_registry.hpp"

namespace arcadia::core {
namespace {

struct FrameworkRig {
  sim::Simulator sim;
  sim::ScenarioConfig scenario;
  sim::Testbed tb;
  FrameworkConfig cfg;
  std::unique_ptr<Framework> fw;

  FrameworkRig() : tb(sim::build_testbed(sim, scenario)) {
    fw = std::make_unique<Framework>(sim, tb, cfg);
  }
};

TEST(FrameworkTest, DeploysExpectedGauges) {
  FrameworkRig rig;
  rig.fw->start();
  // 6 latency + 6 bandwidth + 2 load + 2 utilization.
  EXPECT_EQ(rig.fw->gauges().gauge_count(), 16u);
  rig.sim.run_until(SimTime::seconds(20));
  EXPECT_TRUE(rig.fw->gauges().is_live("latency:User1"));
  EXPECT_TRUE(rig.fw->gauges().is_live("load:ServerGrp1"));
  EXPECT_TRUE(rig.fw->gauges().is_live("bandwidth:User3"));
}

TEST(FrameworkTest, PrequeryWarmsRemos) {
  FrameworkRig rig;
  rig.fw->start();
  EXPECT_GT(rig.fw->remos().stats().cold_queries, 0u);
  sim::GridApp& app = *rig.tb.app;
  EXPECT_TRUE(rig.fw->remos().is_warm(app.group_node(rig.tb.sg1),
                                      app.client_node(rig.tb.clients[0])));
}

TEST(FrameworkTest, StartTwiceThrows) {
  FrameworkRig rig;
  rig.fw->start();
  EXPECT_THROW(rig.fw->start(), Error);
}

TEST(FrameworkTest, ConstraintsInstantiated) {
  FrameworkRig rig;
  // 6 latency constraints + 2 utilization constraints.
  EXPECT_EQ(rig.fw->manager().checker().constraints().size(), 8u);
}

TEST(FrameworkTest, GaugeReportsUpdateModelProperties) {
  FrameworkRig rig;
  rig.fw->start();
  rig.tb.start();
  rig.sim.run_until(SimTime::seconds(60));
  // After a minute of quiescent traffic, latency gauges have reported and
  // the model's averageLatency reflects sub-second latencies.
  const model::Component& user1 = rig.fw->system().component("User1");
  double lat = user1.property("averageLatency").as_double();
  EXPECT_GT(lat, 0.0);
  EXPECT_LT(lat, 2.0);
  // Role bandwidth reflects the quiet network.
  double bw = rig.fw->system()
                  .connector("Conn_User1")
                  .role("clientSide")
                  .property("bandwidth")
                  .as_double();
  EXPECT_GT(bw, 1e6);
  EXPECT_GT(rig.fw->detection_loop()->shard_stats(0).reports_applied, 0u);
}

TEST(FrameworkTest, SoloLoopChecksOncePerPeriod) {
  // A solo framework's detection loop is a one-shard FleetManager that
  // detects and dispatches every period from first_check on, never
  // skipping: checks == floor((H - first_check) / check_period) + 1.
  sim::Simulator sim;
  sim::Testbed tb = sim::build_scenario(sim, "paper-fig6");
  FrameworkConfig cfg;
  Framework fw(sim, tb, cfg);
  EXPECT_EQ(fw.detection_loop(), nullptr);  // armed by start()
  fw.start();
  tb.start();
  const SimTime horizon = SimTime::seconds(242);
  sim.run_until(horizon);

  const std::uint64_t expected =
      static_cast<std::uint64_t>((horizon - cfg.first_check).as_seconds() /
                                 cfg.check_period.as_seconds()) +
      1;
  EXPECT_EQ(expected, 46u);
  EXPECT_EQ(fw.manager().stats().checks, expected);
  const FleetManager* loop = fw.detection_loop();
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->shard_count(), 1u);
  EXPECT_EQ(loop->stats().sweep_rounds, expected);
  EXPECT_EQ(loop->shard_stats(0).sweeps, expected);
  EXPECT_EQ(loop->shard_stats(0).sweeps_skipped, 0u);
  EXPECT_EQ(loop->shard_stats(0).batches, 0u);  // applied on delivery
}

TEST(FrameworkTest, DispatchTimeIsKeptApartFromCheckTime) {
  // check_wall_s times constraint evaluation (detect) and dispatch_wall_s
  // strategy execution (dispatch); a sweep with no violation dispatches
  // nothing and adds no dispatch time.
  sim::Simulator sim;
  sim::Testbed tb = sim::build_scenario(sim, "grid-4x16");
  FrameworkConfig cfg;
  Framework fw(sim, tb, cfg);
  fw.start();
  tb.start();
  sim.run_until(cfg.first_check);
  ASSERT_EQ(fw.manager().stats().checks, 1u);
  EXPECT_GT(fw.manager().stats().check_wall_s, 0.0);
  EXPECT_EQ(fw.manager().stats().dispatch_wall_s, 0.0);
  EXPECT_EQ(fw.engine().stats().committed + fw.engine().stats().aborted, 0u);

  sim.run_until(SimTime::seconds(700));  // past the first load-driven repairs
  ASSERT_GT(fw.engine().stats().committed, 0u);
  EXPECT_GT(fw.manager().stats().dispatch_wall_s, 0.0);
}

/// Publish `n` on the started framework's gauge bus and run past its
/// delivery, before any gauge's first report. Returns how many reports the
/// detection loop ignored on the way.
std::uint64_t deliver_report(FrameworkRig& rig, events::Notification n) {
  const std::uint64_t ignored_before =
      rig.fw->detection_loop()->shard_stats(0).reports_ignored;
  rig.fw->gauge_bus().publish(std::move(n));
  rig.sim.run_until(rig.sim.now() + SimTime::seconds(1));
  return rig.fw->detection_loop()->shard_stats(0).reports_ignored -
         ignored_before;
}

TEST(FrameworkTest, ManagerAppliesDottedElementReports) {
  FrameworkRig rig;
  rig.fw->start();
  events::Notification n(monitor::topics::kGaugeReport);
  n.set(monitor::topics::kAttrElement, "Conn_User2.clientSide")
      .set(monitor::topics::kAttrProperty, "bandwidth")
      .set(monitor::topics::kAttrValue, 1234.0);
  EXPECT_EQ(deliver_report(rig, std::move(n)), 0u);
  EXPECT_DOUBLE_EQ(rig.fw->system()
                       .connector("Conn_User2")
                       .role("clientSide")
                       .property("bandwidth")
                       .as_double(),
                   1234.0);
}

TEST(FrameworkTest, ManagerIgnoresUnknownElements) {
  FrameworkRig rig;
  rig.fw->start();
  events::Notification n(monitor::topics::kGaugeReport);
  n.set(monitor::topics::kAttrElement, "Ghost")
      .set(monitor::topics::kAttrProperty, "x")
      .set(monitor::topics::kAttrValue, 1.0);
  EXPECT_EQ(deliver_report(rig, std::move(n)), 1u);
  events::Notification partial(monitor::topics::kGaugeReport);
  partial.set(monitor::topics::kAttrElement, "User1");
  EXPECT_EQ(deliver_report(rig, std::move(partial)), 1u);
}

TEST(FrameworkTest, ManagerRejectsMalformedElementAddresses) {
  // A dangling dot must not degrade to a component write: "User1." used to
  // be rejected on the connector path and has to stay rejected.
  FrameworkRig rig;
  rig.fw->start();
  for (const char* addr : {"User1.", ".clientSide", "."}) {
    events::Notification n(monitor::topics::kGaugeReport);
    n.set(monitor::topics::kAttrElement, addr)
        .set(monitor::topics::kAttrProperty, "load")
        .set(monitor::topics::kAttrValue, 9.0);
    EXPECT_EQ(deliver_report(rig, std::move(n)), 1u) << addr;
  }
  EXPECT_FALSE(rig.fw->system().component("User1").has_property("load"));
}

TEST(FrameworkTest, GaugeCachingRelocatesOnRedeploy) {
  // gauge_costs.caching is the one switch for Section 5.3's cached gauges:
  // the framework hands it to the gauge manager as set.
  sim::Simulator sim;
  sim::Testbed tb = sim::build_testbed(sim, sim::ScenarioConfig{});
  FrameworkConfig cfg;
  cfg.gauge_costs.caching = true;
  Framework fw(sim, tb, cfg);
  fw.start();
  sim.run_until(SimTime::seconds(20));  // every gauge is live
  ASSERT_TRUE(fw.gauges().is_live("latency:User1"));
  const SimTime start = sim.now();
  SimTime done;
  fw.gauges().redeploy_element("User1", [&] { done = sim.now(); });
  sim.run_until(SimTime::seconds(40));
  EXPECT_TRUE(fw.gauges().config().caching);
  // User1's one gauge is relocated in 1.5 s, not destroyed and re-created
  // in 3 + 12 s.
  EXPECT_EQ(done - start, SimTime::seconds(1.5));
}

TEST(FrameworkTest, CustomScriptSourceUsed) {
  sim::Simulator sim;
  sim::ScenarioConfig scenario;
  sim::Testbed tb = sim::build_testbed(sim, scenario);
  FrameworkConfig cfg;
  cfg.script_source =
      "invariant r : averageLatency <= maxLatency !-> fixLatency(r);\n"
      "strategy fixLatency(c : ClientT) = { abort AlwaysGiveUp; }\n";
  Framework fw(sim, tb, cfg);
  EXPECT_EQ(fw.script().strategies.size(), 1u);
  EXPECT_EQ(fw.manager().checker().constraints().size(), 6u);
}

}  // namespace
}  // namespace arcadia::core
