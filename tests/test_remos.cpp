#include <gtest/gtest.h>

#include "remos/remos.hpp"

namespace arcadia::remos {
namespace {

struct Rig {
  sim::Simulator sim;
  sim::Topology topo;
  std::unique_ptr<sim::FlowNetwork> net;
  sim::NodeId r, a, b;
  std::unique_ptr<RemosService> remos;

  Rig() {
    r = topo.add_node("r", sim::NodeKind::Router);
    a = topo.add_node("a", sim::NodeKind::Host);
    b = topo.add_node("b", sim::NodeKind::Host);
    topo.add_link(a, r, Bandwidth::mbps(10));
    topo.add_link(b, r, Bandwidth::mbps(10));
    topo.compute_routes();
    net = std::make_unique<sim::FlowNetwork>(sim, topo);
    remos = std::make_unique<RemosService>(sim, *net);
  }
};

TEST(RemosTest, FirstQueryIsExpensiveThenCheap) {
  Rig rig;
  rig.remos->get_flow(rig.a, rig.b);
  EXPECT_EQ(rig.remos->last_query_cost(), SimTime::seconds(60));
  rig.remos->get_flow(rig.a, rig.b);
  EXPECT_EQ(rig.remos->last_query_cost(), SimTime::millis(10));
  EXPECT_EQ(rig.remos->stats().cold_queries, 1u);
  EXPECT_EQ(rig.remos->stats().cache_hits, 1u);
}

TEST(RemosTest, DirectionsAreSeparatePairs) {
  Rig rig;
  rig.remos->get_flow(rig.a, rig.b);
  rig.remos->get_flow(rig.b, rig.a);
  EXPECT_EQ(rig.remos->stats().cold_queries, 2u);
}

TEST(RemosTest, CachedValueServedWithinTtl) {
  Rig rig;
  Bandwidth before = rig.remos->get_flow(rig.a, rig.b);
  // Saturate the path; within the TTL Remos still reports the cached value.
  auto bg = rig.net->add_background(rig.a, rig.b);
  rig.net->set_background_rate(bg, Bandwidth::mbps(9.9));
  Bandwidth cached = rig.remos->get_flow(rig.a, rig.b);
  EXPECT_DOUBLE_EQ(cached.as_bps(), before.as_bps());
}

TEST(RemosTest, TtlExpiryRefreshes) {
  Rig rig;
  rig.remos->get_flow(rig.a, rig.b);
  auto bg = rig.net->add_background(rig.a, rig.b);
  rig.net->set_background_rate(bg, Bandwidth::mbps(9.0));
  rig.sim.run_until(SimTime::seconds(31));  // beyond the 30 s TTL
  Bandwidth refreshed = rig.remos->get_flow(rig.a, rig.b);
  EXPECT_NEAR(refreshed.as_mbps(), 1.0, 1e-6);
  EXPECT_EQ(rig.remos->stats().refreshes, 1u);
  EXPECT_EQ(rig.remos->last_query_cost(), SimTime::millis(10));
}

TEST(RemosTest, PrequeryWarmsPairs) {
  Rig rig;
  SimTime cost = rig.remos->prequery({{rig.a, rig.b}, {rig.b, rig.a}});
  EXPECT_EQ(cost, SimTime::seconds(60));  // one parallel collection round
  EXPECT_TRUE(rig.remos->is_warm(rig.a, rig.b));
  rig.remos->get_flow(rig.a, rig.b);
  EXPECT_EQ(rig.remos->last_query_cost(), SimTime::millis(10));
  // Re-prequerying warm pairs is free.
  EXPECT_EQ(rig.remos->prequery({{rig.a, rig.b}}), SimTime::zero());
}

TEST(RemosTest, InterleavedSourcesCountLikeAHandCount) {
  Rig rig;
  auto& remos = *rig.remos;
  remos.get_flow(rig.a, rig.b);  // cold
  remos.get_flow(rig.b, rig.r);  // cold
  remos.get_flow(rig.a, rig.b);  // hit
  remos.get_flow(rig.b, rig.r);  // hit
  remos.get_flow(rig.a, rig.r);  // cold: same source, new destination
  EXPECT_EQ(remos.last_query_cost(), SimTime::seconds(60));
  rig.sim.run_until(SimTime::seconds(31));  // every entry is now stale
  remos.get_flow(rig.b, rig.r);  // refresh
  remos.get_flow(rig.a, rig.b);  // refresh
  remos.get_flow(rig.a, rig.r);  // refresh
  remos.get_flow(rig.b, rig.r);  // hit: refreshed at 31 s
  EXPECT_EQ(remos.last_query_cost(), SimTime::millis(10));
  EXPECT_EQ(remos.stats().queries, 9u);
  EXPECT_EQ(remos.stats().cold_queries, 3u);
  EXPECT_EQ(remos.stats().refreshes, 3u);
  EXPECT_EQ(remos.stats().cache_hits, 3u);

  EXPECT_TRUE(remos.is_warm(rig.a, rig.b));
  EXPECT_TRUE(remos.is_warm(rig.a, rig.r));
  EXPECT_TRUE(remos.is_warm(rig.b, rig.r));
  EXPECT_FALSE(remos.is_warm(rig.b, rig.a));  // reverse of a warm pair
  EXPECT_FALSE(remos.is_warm(rig.r, rig.b));  // source never queried
  EXPECT_FALSE(remos.is_warm(rig.r, rig.a));
  EXPECT_FALSE(remos.is_warm(sim::kNoNode, rig.a));  // outside the topology
  EXPECT_FALSE(remos.is_warm(rig.a, 3));
}

// ---- prequery warm/cold accounting, pinned per direction ----
// The intended semantics (Section 5.3's "we pre-queried Remos"): the pairs
// collect in PARALLEL, so the batch is charged first_query_cost ONCE when
// any pair is cold — while the stats count every cold pair individually
// (each is a real collection, they just overlap in time).

TEST(RemosPrequeryAccountingTest, AllColdChargesOnceCountsEach) {
  Rig rig;
  const RemosStats before = rig.remos->stats();
  SimTime cost = rig.remos->prequery({{rig.a, rig.b}, {rig.b, rig.a}});
  EXPECT_EQ(cost, SimTime::seconds(60));  // one parallel collection round
  EXPECT_EQ(rig.remos->stats().cold_queries, before.cold_queries + 2);
  EXPECT_EQ(rig.remos->stats().queries, before.queries + 2);
  EXPECT_EQ(rig.remos->stats().cache_hits, before.cache_hits);
  EXPECT_TRUE(rig.remos->is_warm(rig.a, rig.b));
  EXPECT_TRUE(rig.remos->is_warm(rig.b, rig.a));
}

TEST(RemosPrequeryAccountingTest, AllWarmIsFreeAndUncounted) {
  Rig rig;
  rig.remos->prequery({{rig.a, rig.b}, {rig.b, rig.a}});
  const RemosStats before = rig.remos->stats();
  // Warm pairs are skipped outright: zero cost, no query traffic at all
  // (not even cache hits — prequery never reads values).
  EXPECT_EQ(rig.remos->prequery({{rig.a, rig.b}, {rig.b, rig.a}}),
            SimTime::zero());
  EXPECT_EQ(rig.remos->stats().queries, before.queries);
  EXPECT_EQ(rig.remos->stats().cold_queries, before.cold_queries);
  EXPECT_EQ(rig.remos->stats().cache_hits, before.cache_hits);
}

TEST(RemosPrequeryAccountingTest, MixedBatchChargesOnceCountsColdOnly) {
  Rig rig;
  rig.remos->prequery({{rig.a, rig.b}});  // warm one direction
  const RemosStats before = rig.remos->stats();
  // One warm + one cold: still one parallel collection round, and only the
  // cold pair shows up in the counters.
  SimTime cost = rig.remos->prequery({{rig.a, rig.b}, {rig.b, rig.a}});
  EXPECT_EQ(cost, SimTime::seconds(60));
  EXPECT_EQ(rig.remos->stats().cold_queries, before.cold_queries + 1);
  EXPECT_EQ(rig.remos->stats().queries, before.queries + 1);
  // A duplicated cold pair in one batch collects once, not twice.
  Rig rig2;
  SimTime dup = rig2.remos->prequery(
      {{rig2.a, rig2.b}, {rig2.a, rig2.b}, {rig2.a, rig2.b}});
  EXPECT_EQ(dup, SimTime::seconds(60));
  EXPECT_EQ(rig2.remos->stats().cold_queries, 1u);
}

TEST(RemosPrequeryAccountingTest, MixedSourcesWarmOnlyTheColdPairs) {
  Rig rig;
  auto& remos = *rig.remos;
  remos.get_flow(rig.a, rig.b);  // a's row exists, b and r have none
  rig.sim.run_until(SimTime::seconds(20));
  const RemosStats before = remos.stats();
  // Warm, cold on a new source, cold on the warm pair's reverse, cold on
  // the warm source's other destination: one round, three collections.
  SimTime cost = remos.prequery(
      {{rig.a, rig.b}, {rig.r, rig.a}, {rig.b, rig.a}, {rig.a, rig.r}});
  EXPECT_EQ(cost, SimTime::seconds(60));
  EXPECT_EQ(remos.stats().queries, before.queries + 3);
  EXPECT_EQ(remos.stats().cold_queries, before.cold_queries + 3);
  EXPECT_EQ(remos.stats().cache_hits, before.cache_hits);
  EXPECT_EQ(remos.stats().refreshes, before.refreshes);
  EXPECT_TRUE(remos.is_warm(rig.r, rig.a));
  EXPECT_TRUE(remos.is_warm(rig.b, rig.a));
  EXPECT_TRUE(remos.is_warm(rig.a, rig.r));
  EXPECT_FALSE(remos.is_warm(rig.r, rig.b));  // not in the batch
  // At 31 s the pair warmed at 0 s is stale, so prequery did not re-measure
  // it; the pairs it collected at 20 s are still fresh.
  rig.sim.run_until(SimTime::seconds(31));
  remos.get_flow(rig.a, rig.b);
  EXPECT_EQ(remos.stats().refreshes, before.refreshes + 1);
  remos.get_flow(rig.r, rig.a);
  EXPECT_EQ(remos.stats().cache_hits, before.cache_hits + 1);
  EXPECT_EQ(remos.last_query_cost(), SimTime::millis(10));
}

TEST(RemosTest, ReportsAvailableBandwidth) {
  Rig rig;
  Bandwidth bw = rig.remos->get_flow(rig.a, rig.b);
  EXPECT_NEAR(bw.as_mbps(), 10.0, 1e-9);
}

}  // namespace
}  // namespace arcadia::remos
