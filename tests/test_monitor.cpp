#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "events/bus.hpp"
#include "monitor/gauge.hpp"
#include "monitor/gauge_manager.hpp"
#include "monitor/probes.hpp"
#include "monitor/topics.hpp"
#include "util/error.hpp"
#include "zero_delay_bus.hpp"

namespace arcadia::monitor {
namespace {

using events::Filter;
using events::Notification;

Notification latency_obs(const std::string& client, double value) {
  Notification n(topics::kProbeLatency);
  n.set(topics::kAttrClient, client).set(topics::kAttrValue, value);
  return n;
}

TEST(SlidingWindowGaugeTest, MeansSamplesInWindow) {
  sim::Simulator sim;
  auto gauge = make_latency_gauge(sim, "User3", sim::kNoNode,
                                  SimTime::seconds(30));
  EXPECT_FALSE(gauge->read().has_value());
  gauge->consume(latency_obs("User3", 1.0));
  gauge->consume(latency_obs("User3", 3.0));
  ASSERT_TRUE(gauge->read().has_value());
  EXPECT_DOUBLE_EQ(*gauge->read(), 2.0);
}

TEST(SlidingWindowGaugeTest, EvictsOldSamples) {
  sim::Simulator sim;
  auto gauge = make_latency_gauge(sim, "U", sim::kNoNode, SimTime::seconds(30));
  gauge->consume(latency_obs("U", 100.0));
  sim.schedule_at(SimTime::seconds(40), [&] {
    gauge->consume(latency_obs("U", 2.0));
  });
  sim.run_until(SimTime::seconds(40));
  ASSERT_TRUE(gauge->read().has_value());
  EXPECT_DOUBLE_EQ(*gauge->read(), 2.0);  // 100.0 fell out of the window
}

TEST(SlidingWindowGaugeTest, HoldsLastValueThenGoesStale) {
  sim::Simulator sim;
  auto gauge = make_latency_gauge(sim, "U", sim::kNoNode, SimTime::seconds(10));
  gauge->consume(latency_obs("U", 5.0));
  // Within 2x window: holds.
  sim.run_until(SimTime::seconds(15));
  ASSERT_TRUE(gauge->read().has_value());
  EXPECT_DOUBLE_EQ(*gauge->read(), 5.0);
  // Beyond max staleness: empty.
  sim.run_until(SimTime::seconds(31));
  EXPECT_FALSE(gauge->read().has_value());
}

TEST(SlidingWindowGaugeTest, FilterRejectsOtherClients) {
  sim::Simulator sim;
  auto gauge = make_latency_gauge(sim, "User3", sim::kNoNode,
                                  SimTime::seconds(30));
  EXPECT_TRUE(gauge->probe_filter().matches(latency_obs("User3", 1.0)));
  EXPECT_FALSE(gauge->probe_filter().matches(latency_obs("User4", 1.0)));
}

TEST(EwmaGaugeTest, Smooths) {
  sim::Simulator sim;
  auto gauge = make_utilization_gauge(sim, "G", sim::kNoNode, 0.5);
  Notification n(topics::kProbeUtilization);
  n.set(topics::kAttrGroup, "G").set(topics::kAttrValue, 1.0);
  gauge->consume(n);
  n.set(topics::kAttrValue, 0.0);
  gauge->consume(n);
  ASSERT_TRUE(gauge->read().has_value());
  EXPECT_DOUBLE_EQ(*gauge->read(), 0.5);
}

TEST(LatestValueGaugeTest, ReportsLatest) {
  sim::Simulator sim;
  auto gauge = make_bandwidth_gauge(sim, "U", "Conn_U.clientSide", sim::kNoNode);
  Notification n(topics::kProbeBandwidth);
  n.set(topics::kAttrClient, "U").set(topics::kAttrValue, 1e6);
  gauge->consume(n);
  n.set(topics::kAttrValue, 5e3);
  gauge->consume(n);
  ASSERT_TRUE(gauge->read().has_value());
  EXPECT_DOUBLE_EQ(*gauge->read(), 5e3);
  EXPECT_EQ(gauge->spec().element, "Conn_U.clientSide");
  EXPECT_EQ(gauge->spec().property, "bandwidth");
}

// ---- GaugeManager ----

struct ManagerRig {
  sim::Simulator sim;
  test::ZeroDelayBus probe_bus{sim};
  test::ZeroDelayBus gauge_bus{sim};
  GaugeManagerConfig cfg;
  std::unique_ptr<GaugeManager> mgr;

  explicit ManagerRig(bool caching = false) {
    cfg.report_period = SimTime::seconds(5);
    cfg.create_cost = SimTime::seconds(12);
    cfg.destroy_cost = SimTime::seconds(3);
    cfg.relocate_cost = SimTime::seconds(1.5);
    cfg.caching = caching;
    mgr = std::make_unique<GaugeManager>(sim, probe_bus, gauge_bus, cfg);
  }
};

TEST(GaugeManagerTest, DeployTakesCreateCost) {
  ManagerRig rig;
  bool live = false;
  rig.mgr->deploy(make_latency_gauge(rig.sim, "U", sim::kNoNode,
                                     SimTime::seconds(30)),
                  [&] { live = true; });
  rig.sim.run_until(SimTime::seconds(11));
  EXPECT_FALSE(live);
  EXPECT_FALSE(rig.mgr->is_live("latency:U"));
  rig.sim.run_until(SimTime::seconds(12));
  EXPECT_TRUE(live);
  EXPECT_TRUE(rig.mgr->is_live("latency:U"));
}

TEST(GaugeManagerTest, LiveGaugeConsumesAndReports) {
  ManagerRig rig;
  rig.mgr->deploy(make_latency_gauge(rig.sim, "U", sim::kNoNode,
                                     SimTime::seconds(30)));
  std::vector<double> reported;
  rig.gauge_bus.subscribe(
      Filter::topic(topics::kGaugeReport),
      [&](const Notification& n) {
        reported.push_back(n.get(topics::kAttrValue).as_double());
      });
  rig.sim.schedule_at(SimTime::seconds(13), [&] {
    rig.probe_bus.publish(latency_obs("U", 4.0));
  });
  rig.sim.run_until(SimTime::seconds(30));
  ASSERT_FALSE(reported.empty());
  EXPECT_DOUBLE_EQ(reported.front(), 4.0);
}

TEST(GaugeManagerTest, DuplicateDeployThrows) {
  ManagerRig rig;
  rig.mgr->deploy(make_latency_gauge(rig.sim, "U", sim::kNoNode,
                                     SimTime::seconds(30)));
  EXPECT_THROW(rig.mgr->deploy(make_latency_gauge(rig.sim, "U", sim::kNoNode,
                                                  SimTime::seconds(30))),
               Error);
}

TEST(GaugeManagerTest, DestroyRemovesAndCharges) {
  ManagerRig rig;
  rig.mgr->deploy(make_latency_gauge(rig.sim, "U", sim::kNoNode,
                                     SimTime::seconds(30)));
  rig.sim.run_until(SimTime::seconds(15));
  SimTime done;
  rig.mgr->destroy("latency:U", [&] { done = rig.sim.now(); });
  rig.sim.run_until(SimTime::seconds(30));
  EXPECT_EQ(done, SimTime::seconds(15) + rig.cfg.destroy_cost);
  EXPECT_EQ(rig.mgr->gauge_count(), 0u);
  EXPECT_THROW(rig.mgr->destroy("latency:U"), Error);
}

TEST(GaugeManagerTest, RedeployColdCostIsDestroyPlusCreatePerGauge) {
  ManagerRig rig;
  rig.mgr->deploy(make_latency_gauge(rig.sim, "U", sim::kNoNode,
                                     SimTime::seconds(30)));
  rig.mgr->deploy(make_load_gauge(rig.sim, "U", sim::kNoNode,
                                  SimTime::seconds(30)));
  rig.sim.run_until(SimTime::seconds(20));
  SimTime start = rig.sim.now();
  SimTime done;
  rig.mgr->redeploy_element("U", [&] { done = rig.sim.now(); });
  rig.sim.run_until(SimTime::seconds(120));
  // Two gauges, sequential destroy+create: 2 * (3 + 12) = 30 s — the
  // paper's ~30 s repair time.
  EXPECT_EQ(done - start, SimTime::seconds(30));
  EXPECT_EQ(rig.mgr->redeploy_cost("U"), SimTime::seconds(30));
}

TEST(GaugeManagerTest, RedeployCachedIsFast) {
  ManagerRig rig(/*caching=*/true);
  rig.mgr->deploy(make_latency_gauge(rig.sim, "U", sim::kNoNode,
                                     SimTime::seconds(30)));
  rig.mgr->deploy(make_load_gauge(rig.sim, "U", sim::kNoNode,
                                  SimTime::seconds(30)));
  rig.sim.run_until(SimTime::seconds(20));
  SimTime start = rig.sim.now();
  SimTime done;
  rig.mgr->redeploy_element("U", [&] { done = rig.sim.now(); });
  rig.sim.run_until(SimTime::seconds(120));
  EXPECT_EQ(done - start, SimTime::seconds(3));  // 2 * 1.5 s relocations
}

TEST(GaugeManagerTest, ColdRedeployResetsGaugeState) {
  ManagerRig rig;
  rig.mgr->deploy(make_latency_gauge(rig.sim, "U", sim::kNoNode,
                                     SimTime::seconds(3000)));
  rig.sim.run_until(SimTime::seconds(13));
  rig.probe_bus.publish(latency_obs("U", 99.0));
  std::vector<double> reported;
  rig.gauge_bus.subscribe(Filter::topic(topics::kGaugeReport),
                          [&](const Notification& n) {
                            reported.push_back(
                                n.get(topics::kAttrValue).as_double());
                          });
  rig.sim.schedule_at(SimTime::seconds(20),
                      [&] { rig.mgr->redeploy_element("U"); });
  // After the redeploy completes, feed a fresh observation.
  rig.sim.schedule_at(SimTime::seconds(40), [&] {
    rig.probe_bus.publish(latency_obs("U", 1.0));
  });
  rig.sim.run_until(SimTime::seconds(60));
  ASSERT_FALSE(reported.empty());
  // The stale 99.0 must not survive the cold redeploy.
  EXPECT_DOUBLE_EQ(reported.back(), 1.0);
}

TEST(GaugeManagerTest, OfflineGaugeDoesNotReport) {
  ManagerRig rig;
  rig.mgr->deploy(make_latency_gauge(rig.sim, "U", sim::kNoNode,
                                     SimTime::seconds(30)));
  rig.sim.run_until(SimTime::seconds(13));
  rig.probe_bus.publish(latency_obs("U", 1.0));
  std::uint64_t before = 0;
  rig.sim.schedule_at(SimTime::seconds(20), [&] {
    rig.mgr->redeploy_element("U");
    before = rig.mgr->stats().reports;
  });
  // During the 15 s redeploy no reports may appear.
  rig.sim.run_until(SimTime::seconds(34));
  EXPECT_EQ(rig.mgr->stats().reports, before);
}

TEST(GaugeManagerTest, ElementsEnumeration) {
  ManagerRig rig;
  rig.mgr->deploy(make_latency_gauge(rig.sim, "U", sim::kNoNode,
                                     SimTime::seconds(30)));
  rig.mgr->deploy(make_load_gauge(rig.sim, "G", sim::kNoNode,
                                  SimTime::seconds(30)));
  auto elements = rig.mgr->all_elements();
  EXPECT_EQ(elements.size(), 2u);
  EXPECT_EQ(rig.mgr->gauges_for("U").size(), 1u);
  EXPECT_TRUE(rig.mgr->gauges_for("missing").empty());
}

TEST(GaugeManagerTest, RedeployUnknownElementCompletesImmediately) {
  ManagerRig rig;
  bool done = false;
  rig.mgr->redeploy_element("ghost", [&] { done = true; });
  rig.sim.run_until(SimTime::seconds(1));
  EXPECT_TRUE(done);
}

TEST(GaugeManagerTest, RedeployFinishesWhenASubscriberDestroysTheLastGauge) {
  // Two gauges on U; redeploying U takes both down, and a lifecycle
  // subscriber reacts to latency:U's notice by destroying load:U — the
  // element's last gauge id — before its completion brings it back. The
  // redeploy must still finish.
  ManagerRig rig;
  rig.mgr->deploy(make_latency_gauge(rig.sim, "U", sim::kNoNode,
                                     SimTime::seconds(30)));
  rig.mgr->deploy(make_load_gauge(rig.sim, "U", sim::kNoNode,
                                  SimTime::seconds(30)));
  rig.sim.run_until(SimTime::seconds(13));
  bool torn_down = false;
  rig.gauge_bus.subscribe(
      Filter::topic(topics::kGaugeLifecycle), [&](const Notification& n) {
        if (n.get(topics::kAttrGaugeId).as_string() == "latency:U" &&
            !torn_down) {
          torn_down = true;
          rig.mgr->destroy("load:U");
        }
      });
  bool done = false;
  rig.mgr->redeploy_element("U", [&] { done = true; });
  rig.sim.run_until(SimTime::seconds(60));
  EXPECT_TRUE(done);
  EXPECT_TRUE(rig.mgr->is_live("latency:U"));
  EXPECT_EQ(rig.mgr->gauge_count(), 1u);
}

// ---- demand-aligned reporting ----

/// Tick t is demanded iff some read S_j of `reads` (up to `horizon`) has
/// S_j - delay - period < t <= S_j - delay — the rule, by scanning reads.
bool demanded_by_scan(SimTime t, SimTime period, const ReadSchedule& reads,
                      SimTime delay, SimTime horizon) {
  for (SimTime s = reads.first; s <= horizon; s += reads.period) {
    if (s - delay - period < t && t <= s - delay) return true;
  }
  return false;
}

TEST(NextDemandedTickTest, GridOriginNotAlignedWithSweeps) {
  const ReadSchedule reads{SimTime::seconds(15), SimTime::seconds(1)};
  const SimTime p = SimTime::millis(250);
  const SimTime d = SimTime::millis(50);
  const SimTime origin = SimTime::millis(12300);
  // Deadlines S_j - d fall at 14.95 s, 15.95 s, ...; the ticks at
  // 12.3 + k * 0.25 s. Each deadline demands the newest tick by it.
  EXPECT_EQ(next_demanded_tick(origin, p, origin, reads, d),
            SimTime::millis(14800));
  EXPECT_EQ(next_demanded_tick(origin, p, SimTime::millis(14801), reads, d),
            SimTime::millis(15800));
  // A demanded tick is its own next demanded tick.
  EXPECT_EQ(next_demanded_tick(origin, p, SimTime::millis(15800), reads, d),
            SimTime::millis(15800));
}

TEST(NextDemandedTickTest, ReadPeriodNotAMultipleOfReportPeriod) {
  const ReadSchedule reads{SimTime::seconds(2), SimTime::seconds(1)};
  const SimTime p = SimTime::millis(400);
  std::vector<SimTime> ticks;
  SimTime from = SimTime::zero();
  for (int i = 0; i < 5; ++i) {
    ticks.push_back(
        next_demanded_tick(SimTime::zero(), p, from, reads, SimTime::zero()));
    from = ticks.back() + p;
  }
  // The newest 400 ms tick by each whole second: the gaps alternate.
  const std::vector<SimTime> want = {
      SimTime::millis(2000), SimTime::millis(2800), SimTime::millis(4000),
      SimTime::millis(4800), SimTime::millis(6000)};
  EXPECT_EQ(ticks, want);
}

TEST(NextDemandedTickTest, DeliveryExactlyAtTheReadCounts) {
  const ReadSchedule reads{SimTime::seconds(1), SimTime::seconds(1)};
  const SimTime p = SimTime::millis(250);
  // The 0.75 s tick lands exactly at the 1 s read: it is the one read.
  EXPECT_EQ(next_demanded_tick(SimTime::zero(), p, SimTime::zero(), reads,
                               SimTime::millis(250)),
            SimTime::millis(750));
  EXPECT_EQ(next_demanded_tick(SimTime::zero(), p, SimTime::zero(), reads,
                               SimTime::millis(200)),
            SimTime::millis(750));
  // One microsecond later it would miss the read; the tick before it is
  // the newest to land in time.
  EXPECT_EQ(next_demanded_tick(SimTime::zero(), p, SimTime::zero(), reads,
                               SimTime::micros(250001)),
            SimTime::millis(500));
}

TEST(NextDemandedTickTest, TicksBeforeTheFirstSweepAreNotDemanded) {
  const ReadSchedule reads{SimTime::seconds(15), SimTime::seconds(1)};
  const SimTime p = SimTime::millis(250);
  const SimTime d = SimTime::millis(50);
  // Fifty-odd ticks land before the first read; it reads only the newest.
  EXPECT_EQ(next_demanded_tick(SimTime::zero(), p, SimTime::zero(), reads, d),
            SimTime::millis(14750));
  // A gauge live at 14.9 s ticks first at 15.15 s, too late for the 15 s
  // read: its first demanded tick serves the 16 s read.
  EXPECT_EQ(next_demanded_tick(SimTime::millis(14900), p,
                               SimTime::millis(14900), reads, d),
            SimTime::millis(15900));
}

TEST(NextDemandedTickTest, MatchesTheRuleByScanning) {
  std::mt19937_64 rng(23);
  auto ms = [&](int lo, int hi) {
    return SimTime::millis(std::uniform_int_distribution<int>(lo, hi)(rng));
  };
  for (int trial = 0; trial < 2000; ++trial) {
    const SimTime origin = ms(0, 5000);
    const SimTime p = ms(1, 700);
    const ReadSchedule reads{ms(0, 6000), ms(1, 1500)};
    const SimTime d = ms(0, 300);
    const SimTime from = origin + ms(0, 3000);
    const SimTime got = next_demanded_tick(origin, p, from, reads, d);
    // The first tick of origin + k * p (k >= 1) at or after `from` that
    // the rule demands.
    SimTime want = origin + p;
    while (want < from) want += p;
    const SimTime horizon = got + reads.period + d + p;
    while (!demanded_by_scan(want, p, reads, d, horizon)) want += p;
    ASSERT_EQ(got, want) << "trial " << trial;
  }
}

Notification queue_obs(const std::string& group, double value) {
  Notification n(topics::kProbeQueue);
  n.set(topics::kAttrGroup, group).set(topics::kAttrValue, value);
  return n;
}

/// Two gauges on U (2 s windows) fed a moving latency and queue
/// observation every 130 ms, reporting every 250 ms; every report is
/// recorded with its send time. A zero-delay bus delivers at the send
/// time: a report sent at t "lands" at t + kDelay, the delay the read
/// schedule is told about.
struct DemandRig {
  static constexpr SimTime kDelay = SimTime::millis(50);
  sim::Simulator sim;
  test::ZeroDelayBus probe_bus{sim};
  test::ZeroDelayBus gauge_bus{sim};
  std::unique_ptr<GaugeManager> mgr;
  std::unique_ptr<sim::PeriodicTask> feeder;
  struct Report {
    SimTime sent;
    std::string gauge;
    double value;
  };
  std::vector<Report> reports;

  /// Probes fall silent at `feed_until`.
  explicit DemandRig(std::optional<ReadSchedule> reads,
                     SimTime feed_until = SimTime::infinity()) {
    GaugeManagerConfig cfg;
    cfg.report_period = SimTime::millis(250);
    cfg.caching = true;
    mgr = std::make_unique<GaugeManager>(sim, probe_bus, gauge_bus, cfg);
    if (reads) mgr->set_read_schedule(*reads, kDelay);
    gauge_bus.subscribe(Filter::topic(topics::kGaugeReport),
                        [this](const Notification& n) {
                          reports.push_back(
                              {sim.now(),
                               n.get(topics::kAttrGaugeId).as_string(),
                               n.get(topics::kAttrValue).as_double()});
                        });
    mgr->deploy(make_latency_gauge(sim, "U", sim::kNoNode,
                                   SimTime::seconds(2)));
    mgr->deploy(make_load_gauge(sim, "U", sim::kNoNode, SimTime::seconds(2)));
    int step = 0;
    feeder = std::make_unique<sim::PeriodicTask>(
        sim, SimTime::millis(130), SimTime::millis(130),
        [this, step, feed_until]() mutable {
          ++step;
          probe_bus.publish(latency_obs("U", 0.1 * (step % 17)));
          probe_bus.publish(queue_obs("U", static_cast<double>(step % 5)));
          return sim.now() < feed_until;
        });
  }

  /// What the sweeps at the reads of `reads` up to 40 s write into the
  /// model, per (read index, gauge): each read applies the newest report
  /// that landed after the previous read and by this one, unless it
  /// repeats the value already applied (the dead band).
  std::map<std::pair<long, std::string>, double> model_writes(
      const ReadSchedule& reads) const {
    std::map<std::pair<long, std::string>, double> slots;
    for (const Report& r : reports) {
      const SimTime lands = r.sent + kDelay;
      if (lands > SimTime::seconds(40)) continue;
      long j = 0;
      while (reads.first + reads.period * static_cast<double>(j) < lands) ++j;
      slots[{j, r.gauge}] = r.value;  // sent in order: the newest wins
    }
    std::map<std::pair<long, std::string>, double> writes;
    std::map<std::string, double> model;
    for (const auto& [key, value] : slots) {
      const auto it = model.find(key.second);
      if (it != model.end() && it->second == value) continue;
      model[key.second] = value;
      writes[key] = value;
    }
    return writes;
  }
};

TEST(GaugeManagerTest, ReadScheduleAfterAGaugeIsLiveThrows) {
  ManagerRig rig;
  rig.mgr->deploy(make_latency_gauge(rig.sim, "U", sim::kNoNode,
                                     SimTime::seconds(30)));
  const ReadSchedule reads{SimTime::seconds(15), SimTime::seconds(1)};
  EXPECT_NO_THROW(rig.mgr->set_read_schedule(reads, SimTime::zero()));
  rig.sim.run_until(SimTime::seconds(13));
  EXPECT_THROW(rig.mgr->set_read_schedule(reads, SimTime::zero()), Error);
}

TEST(GaugeManagerTest, DemandedTicksCarryWhatEachSweepReads) {
  const ReadSchedule reads{SimTime::seconds(15), SimTime::seconds(1)};
  DemandRig every(std::nullopt);
  DemandRig demand(reads);
  every.sim.run_until(SimTime::seconds(40));
  demand.sim.run_until(SimTime::seconds(40));
  // The same value for every read and gauge — the same report.
  EXPECT_EQ(demand.model_writes(reads), every.model_writes(reads));
  // One report per read per live gauge: reads 0..25 land by 40 s.
  EXPECT_EQ(demand.reports.size(), 2u * 26u);
  std::map<std::pair<long, std::string>, int> per_read;
  for (const DemandRig::Report& r : demand.reports) {
    for (long j = 0; j <= 25; ++j) {
      const SimTime s = reads.first + reads.period * static_cast<double>(j);
      if (s - DemandRig::kDelay - SimTime::millis(250) < r.sent &&
          r.sent <= s - DemandRig::kDelay) {
        ++per_read[{j, r.gauge}];
      }
    }
  }
  EXPECT_EQ(per_read.size(), 2u * 26u);
  for (const auto& [key, n] : per_read) EXPECT_EQ(n, 1) << key.first;
  EXPECT_GT(every.reports.size(), 3 * demand.reports.size());
}

TEST(GaugeManagerTest, HeldValueThroughASilenceMatchesEveryTick) {
  // The last samples arrive at 20.28 and 20.41 s. The 2 s windows empty
  // after 22.41 s, and the gauges then hold the mean their last non-empty
  // read computed — the skipped 22.25 s tick's, not the demanded 21.75 s
  // tick's — until 24.41 s. The 23 s read must apply that held value.
  const ReadSchedule reads{SimTime::seconds(15), SimTime::seconds(1)};
  DemandRig every(std::nullopt, SimTime::millis(20400));
  DemandRig demand(reads, SimTime::millis(20400));
  every.sim.run_until(SimTime::seconds(40));
  demand.sim.run_until(SimTime::seconds(40));
  const auto writes = demand.model_writes(reads);
  EXPECT_EQ(writes, every.model_writes(reads));
  EXPECT_TRUE(writes.count({8, "latency:U"}));
  EXPECT_TRUE(writes.count({8, "load:U"}));
}

TEST(GaugeManagerTest, RedeployedGaugeAtAnArbitraryPhaseStaysOnDemand) {
  const ReadSchedule reads{SimTime::seconds(15), SimTime::seconds(1)};
  DemandRig every(std::nullopt);
  DemandRig demand(reads);
  // Relocations take 1.5 s per gauge: latency:U is back at 18.63 s and
  // load:U at 20.13 s, each on a tick grid of its own.
  for (DemandRig* rig : {&every, &demand}) {
    rig->sim.schedule_at(SimTime::millis(17130),
                         [rig] { rig->mgr->redeploy_element("U"); });
    rig->sim.run_until(SimTime::seconds(40));
  }
  const std::map<std::string, SimTime> origin = {
      {"latency:U", SimTime::millis(18630)},
      {"load:U", SimTime::millis(20130)}};
  for (const DemandRig::Report& r : demand.reports) {
    if (r.sent < SimTime::millis(17130)) continue;
    const SimTime since = r.sent - origin.at(r.gauge);
    EXPECT_EQ(since.as_micros() % SimTime::millis(250).as_micros(), 0)
        << r.gauge << " at " << r.sent.as_seconds();
    EXPECT_TRUE(demanded_by_scan(r.sent, SimTime::millis(250), reads,
                                 DemandRig::kDelay, SimTime::seconds(40)))
        << r.gauge << " at " << r.sent.as_seconds();
  }
  // Once both gauges are back, every read sees the same values.
  auto after = [](std::map<std::pair<long, std::string>, double> m) {
    std::erase_if(m, [](const auto& e) { return e.first.first < 6; });
    return m;
  };
  EXPECT_EQ(after(demand.model_writes(reads)),
            after(every.model_writes(reads)));
  EXPECT_FALSE(after(demand.model_writes(reads)).empty());
}

}  // namespace
}  // namespace arcadia::monitor
