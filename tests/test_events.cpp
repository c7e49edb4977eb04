#include <gtest/gtest.h>

#include "events/bus.hpp"
#include "zero_delay_bus.hpp"

namespace arcadia::events {
namespace {

TEST(ValueTest, NumericCoercionEquality) {
  EXPECT_EQ(Value(1), Value(1.0));
  EXPECT_NE(Value(1), Value("1"));
  EXPECT_EQ(Value("x"), Value(std::string("x")));
  EXPECT_NE(Value(true), Value(1));  // bool is not numeric
}

TEST(ValueTest, CompareOrdersNumbersAndStrings) {
  int cmp = 0;
  EXPECT_TRUE(Value::compare(Value(1), Value(2.5), cmp));
  EXPECT_LT(cmp, 0);
  EXPECT_TRUE(Value::compare(Value("b"), Value("a"), cmp));
  EXPECT_GT(cmp, 0);
  EXPECT_FALSE(Value::compare(Value(true), Value("a"), cmp));
}

TEST(ValueTest, AsDoublePromotesInt) {
  EXPECT_DOUBLE_EQ(Value(7).as_double(), 7.0);
}

/// A list of `n` attributes a0..a(n-1) holding n*10 + i, the last one an
/// owned string so a move must carry heap-backed values too.
AttrList make_attrs(int n) {
  AttrList list;
  for (int i = 0; i < n; ++i) {
    const util::Symbol name = util::Symbol::intern("a" + std::to_string(i));
    if (i + 1 == n) {
      list.set(name, Value(std::string(40, static_cast<char>('a' + n))));
    } else {
      list.set(name, Value(n * 10 + i));
    }
  }
  return list;
}

void expect_attrs(const AttrList& list, int n) {
  ASSERT_EQ(list.size(), static_cast<std::size_t>(n));
  int i = 0;
  for (const AttrList::Attr& a : list) {
    EXPECT_EQ(a.name.str(), "a" + std::to_string(i));
    if (i + 1 == n) {
      EXPECT_EQ(a.value, Value(std::string(40, static_cast<char>('a' + n))));
    } else {
      EXPECT_EQ(a.value, Value(n * 10 + i));
    }
    ++i;
  }
}

TEST(AttrListTest, MovesCarryExactlyTheLiveAttributes) {
  // Inline lists from empty to full and a spilled one (9 > kInlineCap),
  // moved into a new list and assigned over shorter, longer and spilled
  // destinations.
  for (int from : {0, 1, 3, 6, 9}) {
    AttrList source = make_attrs(from);
    AttrList built(std::move(source));
    expect_attrs(built, from);
    EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
    for (int onto : {0, 2, 6, 9}) {
      AttrList src = make_attrs(from);
      AttrList dst = make_attrs(onto);
      dst = std::move(src);
      expect_attrs(dst, from);
      EXPECT_TRUE(src.empty());  // NOLINT(bugprone-use-after-move)
      // Both stay usable: a later set lands after the moved attributes.
      dst.set(util::Symbol::intern("z"), Value(1));
      EXPECT_EQ(dst.size(), static_cast<std::size_t>(from + 1));
      src.set(util::Symbol::intern("z"), Value(2));
      ASSERT_EQ(src.size(), 1u);
      EXPECT_EQ(*src.find(util::Symbol::intern("z")), Value(2));
    }
  }
}

TEST(FilterTest, KeyMatchesByValueEquality) {
  const Filter f = Filter::keyed("t", "k", "User3");
  struct Case {
    Value attr;
    bool expect;
  };
  const Case cases[] = {
      {Value(util::Symbol::intern("User3")), true},
      {Value(std::string("User3")), true},  // an owned string, by its text
      {Value(util::Symbol::intern("User4")), false},
      {Value(std::string("User4")), false},
      {Value(3), false},
      {Value(true), false},
  };
  for (const Case& c : cases) {
    Notification n("t");
    n.set("k", c.attr);
    EXPECT_EQ(f.matches(n), c.expect) << c.attr.to_string();
  }
  Notification other_topic("u");
  other_topic.set("k", "User3");
  EXPECT_FALSE(f.matches(other_topic));
}

TEST(FilterTest, MissingAttributeNeverMatches) {
  Notification n("t");
  n.set("other", "User3");
  EXPECT_FALSE(Filter::keyed("t", "absent", "User3").matches(n));
  EXPECT_TRUE(Filter::topic("t").matches(n));
}

TEST(FilterTest, TopicIsExact) {
  Notification n("probe.latency");
  EXPECT_TRUE(Filter::topic("probe.latency").matches(n));
  EXPECT_TRUE(Filter::topic(util::Symbol::intern("probe.latency")).matches(n));
  EXPECT_FALSE(Filter::topic("probe.queue").matches(n));
  // '*' is topic text like any other: there are no pattern topics.
  EXPECT_FALSE(Filter::topic("probe.*").matches(n));
}

TEST(ZeroDelayBusTest, DeliversToMatchingSubscribers) {
  sim::Simulator sim;
  test::ZeroDelayBus bus(sim);
  int a = 0, b = 0;
  bus.subscribe(Filter::topic("x"), [&](const Notification&) { ++a; });
  bus.subscribe(Filter::topic("y"), [&](const Notification&) { ++b; });
  bus.publish(Notification("x"));
  bus.publish(Notification("x"));
  bus.publish(Notification("y"));
  bus.drain();
  EXPECT_EQ(a, 2);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(bus.stats().published, 3u);
  EXPECT_EQ(bus.stats().delivered, 3u);
  EXPECT_EQ(sim.now(), SimTime::zero());  // zero delay: no time passes
}

TEST(ZeroDelayBusTest, UnsubscribeStopsDelivery) {
  sim::Simulator sim;
  test::ZeroDelayBus bus(sim);
  int count = 0;
  SubscriptionId id =
      bus.subscribe(Filter::topic("t"), [&](const Notification&) { ++count; });
  bus.publish(Notification("t"));
  bus.drain();
  bus.unsubscribe(id);
  bus.publish(Notification("t"));
  bus.drain();
  EXPECT_EQ(count, 1);
  EXPECT_EQ(bus.stats().dropped_no_match, 1u);
}

TEST(ZeroDelayBusTest, HandlerMayReenterBus) {
  sim::Simulator sim;
  test::ZeroDelayBus bus(sim);
  int second = 0;
  bus.subscribe(Filter::topic("first"), [&](const Notification&) {
    bus.publish(Notification("second"));
  });
  bus.subscribe(Filter::topic("second"), [&](const Notification&) { ++second; });
  bus.publish(Notification("first"));
  bus.drain();  // also delivers the re-entrant publish, at the same time
  EXPECT_EQ(second, 1);
  EXPECT_EQ(bus.in_flight(), 0u);
}

TEST(SimEventBusTest, DeliveryIsDelayed) {
  sim::Simulator sim;
  SimEventBus bus(sim, fixed_delay(SimTime::millis(100)));
  SimTime delivered;
  bus.subscribe(Filter::topic("t"),
                [&](const Notification&) { delivered = sim.now(); });
  sim.schedule_at(SimTime::seconds(1), [&] { bus.publish(Notification("t")); });
  sim.run_until(SimTime::seconds(2));
  EXPECT_EQ(delivered, SimTime::seconds(1) + SimTime::millis(100));
}

TEST(SimEventBusTest, UnsubscribeDropsInFlight) {
  sim::Simulator sim;
  SimEventBus bus(sim, fixed_delay(SimTime::seconds(1)));
  int count = 0;
  SubscriptionId id =
      bus.subscribe(Filter::topic("t"), [&](const Notification&) { ++count; });
  bus.publish(Notification("t"));
  EXPECT_EQ(bus.in_flight(), 1u);
  sim.schedule_at(SimTime::millis(500), [&] { bus.unsubscribe(id); });
  sim.run_until(SimTime::seconds(2));
  EXPECT_EQ(count, 0);  // the in-flight delivery was dropped
  EXPECT_EQ(bus.in_flight(), 0u);
}

TEST(SimEventBusTest, NetworkDelayModelChargesCongestion) {
  sim::Simulator sim;
  sim::Topology topo;
  auto r = topo.add_node("r", sim::NodeKind::Router);
  auto a = topo.add_node("a", sim::NodeKind::Host);
  auto b = topo.add_node("b", sim::NodeKind::Host);
  auto c = topo.add_node("c", sim::NodeKind::Host);
  topo.add_link(a, r, Bandwidth::mbps(10));
  topo.add_link(b, r, Bandwidth::mbps(10));
  topo.add_link(c, r, Bandwidth::mbps(10));
  topo.compute_routes();
  sim::FlowNetwork net(sim, topo);

  // Saturate a -> b.
  auto bg = net.add_background(a, b);
  net.set_background_rate(bg, Bandwidth::mbps(9.9999));

  DelayModel shared = network_delay(net, SimTime::millis(10), false);
  DelayModel qos = network_delay(net, SimTime::millis(10), true);

  Notification n("gauge.report");
  n.source_node = a;
  n.wire_size = DataSize::bytes(1024);
  SimTime congested = shared(n, b);
  SimTime prioritized = qos(n, b);
  // The reverse direction of the saturated pair is clean (full duplex).
  Notification rev("gauge.report");
  rev.source_node = b;
  rev.wire_size = DataSize::bytes(1024);
  SimTime clean = shared(rev, a);
  (void)c;
  EXPECT_GT(congested.as_seconds(), 1.0);     // crawls through the congestion
  EXPECT_LT(clean.as_seconds(), 0.02);        // other direction unaffected
  EXPECT_EQ(prioritized, SimTime::millis(10));  // QoS bypasses it
}

}  // namespace
}  // namespace arcadia::events
