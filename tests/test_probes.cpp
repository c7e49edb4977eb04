// Probe deployment against the simulated runtime: latency (with the stall
// detector), queue-length, utilization, bandwidth, and the AIDE-style
// method-call counter.
#include <gtest/gtest.h>

#include "events/bus.hpp"
#include "monitor/probes.hpp"
#include "monitor/topics.hpp"
#include "remos/remos.hpp"
#include "sim/scenario.hpp"
#include "zero_delay_bus.hpp"

namespace arcadia::monitor {
namespace {

struct ProbeRig {
  sim::Simulator sim;
  sim::ScenarioConfig cfg;
  sim::Testbed tb;
  remos::RemosService remos;
  test::ZeroDelayBus bus{sim};
  std::vector<events::Notification> seen;

  ProbeRig() : tb(sim::build_testbed(sim, cfg)), remos(sim, *tb.net) {
    for (const char* topic :
         {topics::kProbeLatency, topics::kProbeQueue, topics::kProbeBandwidth,
          topics::kProbeUtilization}) {
      bus.subscribe(events::Filter::topic(topic),
                    [this](const events::Notification& n) {
                      seen.push_back(n);
                    });
    }
  }

  std::size_t count(const char* topic) const {
    std::size_t n = 0;
    for (const auto& notif : seen) {
      if (notif.topic == topic) ++n;
    }
    return n;
  }
};

TEST(ProbesTest, LatencyProbePublishesCompletions) {
  ProbeRig rig;
  LatencyProbe probe(rig.sim, *rig.tb.app, rig.bus);
  probe.start();
  rig.tb.app->issue_request(rig.tb.clients[0], DataSize::bytes(512),
                            DataSize::kilobytes(10));
  rig.sim.run_until(SimTime::seconds(10));
  ASSERT_GE(rig.count(topics::kProbeLatency), 1u);
  const auto& n = rig.seen.front();
  EXPECT_EQ(n.get(topics::kAttrClient).as_string(), "User1");
  EXPECT_GT(n.get(topics::kAttrValue).as_double(), 0.0);
  EXPECT_EQ(n.source_node, rig.tb.app->client_node(rig.tb.clients[0]));
}

TEST(ProbesTest, LatencyProbeStallDetectorFiresWhenStarved) {
  ProbeRig rig;
  // No active servers: the request can never be answered.
  for (sim::ServerIdx s = 0;
       s < static_cast<sim::ServerIdx>(rig.tb.app->server_count()); ++s) {
    rig.tb.app->deactivate_server(s);
  }
  LatencyProbe probe(rig.sim, *rig.tb.app, rig.bus, SimTime::seconds(5),
                     SimTime::seconds(10));
  probe.start();
  rig.tb.app->issue_request(rig.tb.clients[0], DataSize::bytes(512),
                            DataSize::kilobytes(10));
  rig.sim.run_until(SimTime::seconds(31));
  // Stall observations at 15, 20, 25, 30 s (ages >= 10 s).
  std::size_t stalls = rig.count(topics::kProbeLatency);
  EXPECT_GE(stalls, 3u);
  // Ages grow monotonically.
  double last = 0.0;
  for (const auto& n : rig.seen) {
    double v = n.get(topics::kAttrValue).as_double();
    EXPECT_GE(v, last);
    last = v;
  }
  EXPECT_GE(last, 25.0);
}

TEST(ProbesTest, StoppedProbePublishesNothing) {
  ProbeRig rig;
  LatencyProbe probe(rig.sim, *rig.tb.app, rig.bus);
  probe.start();
  probe.stop();
  rig.tb.app->issue_request(rig.tb.clients[0], DataSize::bytes(512),
                            DataSize::kilobytes(10));
  rig.sim.run_until(SimTime::seconds(10));
  EXPECT_EQ(rig.count(topics::kProbeLatency), 0u);
}

TEST(ProbesTest, QueueLengthProbeSamplesAllGroups) {
  ProbeRig rig;
  QueueLengthProbe probe(rig.sim, *rig.tb.app, rig.bus, SimTime::seconds(1));
  probe.start();
  rig.sim.run_until(SimTime::seconds(3));
  // 3 samples x 2 groups.
  EXPECT_EQ(rig.count(topics::kProbeQueue), 6u);
  EXPECT_TRUE(rig.seen.front().has(topics::kAttrGroup));
}

TEST(ProbesTest, UtilizationProbeReflectsBusyServers) {
  ProbeRig rig;
  UtilizationProbe probe(rig.sim, *rig.tb.app, rig.bus, SimTime::seconds(1));
  probe.start();
  // Keep SG1 busy with a long service.
  rig.tb.app->issue_request(rig.tb.clients[0], DataSize::bytes(512),
                            DataSize::kilobytes(100));
  rig.sim.run_until(SimTime::seconds(2));
  bool nonzero = false;
  for (const auto& n : rig.seen) {
    if (n.topic == std::string(topics::kProbeUtilization) &&
        n.get(topics::kAttrGroup).as_string() == "ServerGrp1" &&
        n.get(topics::kAttrValue).as_double() > 0.0) {
      nonzero = true;
    }
  }
  EXPECT_TRUE(nonzero);
}

TEST(ProbesTest, BandwidthProbeQueriesRemosPerClient) {
  ProbeRig rig;
  BandwidthProbe probe(rig.sim, *rig.tb.app, rig.remos, rig.bus,
                       SimTime::seconds(2));
  probe.start();
  rig.sim.run_until(SimTime::seconds(2));
  EXPECT_EQ(rig.count(topics::kProbeBandwidth), 6u);  // one per client
  for (const auto& n : rig.seen) {
    EXPECT_GT(n.get(topics::kAttrValue).as_double(), 1e6);  // quiet network
  }
  EXPECT_GT(rig.remos.stats().queries, 0u);
}

TEST(ProbesTest, StandardSetCoversFourKinds) {
  ProbeRig rig;
  ProbeSet set = make_standard_probes(rig.sim, *rig.tb.app, rig.remos, rig.bus,
                                      SimTime::seconds(1));
  EXPECT_EQ(set.probes.size(), 4u);
  set.start_all();
  rig.sim.run_until(SimTime::seconds(3));
  EXPECT_GT(rig.count(topics::kProbeQueue), 0u);
  EXPECT_GT(rig.count(topics::kProbeUtilization), 0u);
  EXPECT_GT(rig.count(topics::kProbeBandwidth), 0u);
  set.stop_all();
  std::size_t before = rig.seen.size();
  rig.sim.run_until(SimTime::seconds(6));
  EXPECT_EQ(rig.seen.size(), before);
}

}  // namespace
}  // namespace arcadia::monitor
