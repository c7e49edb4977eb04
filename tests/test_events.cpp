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

struct FilterCase {
  Op op;
  Value attr;
  Value constraint;
  bool expect;
};

class FilterOpTest : public ::testing::TestWithParam<FilterCase> {};

TEST_P(FilterOpTest, Matches) {
  const FilterCase& c = GetParam();
  Notification n("t");
  n.set("k", c.attr);
  Filter f = Filter::topic("t").where("k", c.op, c.constraint);
  EXPECT_EQ(f.matches(n), c.expect)
      << to_string(c.op) << " attr=" << c.attr.to_string()
      << " constraint=" << c.constraint.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    OpTable, FilterOpTest,
    ::testing::Values(
        FilterCase{Op::Eq, Value(5), Value(5.0), true},
        FilterCase{Op::Eq, Value(5), Value(6), false},
        FilterCase{Op::Ne, Value("a"), Value("b"), true},
        FilterCase{Op::Ne, Value("a"), Value("a"), false},
        FilterCase{Op::Lt, Value(1.5), Value(2), true},
        FilterCase{Op::Lt, Value(2), Value(2), false},
        FilterCase{Op::Le, Value(2), Value(2), true},
        FilterCase{Op::Gt, Value(3), Value(2), true},
        FilterCase{Op::Ge, Value(2), Value(3), false},
        FilterCase{Op::Exists, Value(0), Value(0), true},
        FilterCase{Op::Prefix, Value("User3"), Value("User"), true},
        FilterCase{Op::Prefix, Value("User3"), Value("Server"), false},
        FilterCase{Op::Suffix, Value("probe.latency"), Value("latency"), true},
        FilterCase{Op::Suffix, Value("probe.latency"), Value("queue"), false},
        FilterCase{Op::Contains, Value("gauge.report"), Value("e.r"), true},
        FilterCase{Op::Contains, Value("gauge.report"), Value("xyz"), false},
        FilterCase{Op::Lt, Value("a"), Value(1), false},  // incomparable
        FilterCase{Op::Prefix, Value(5), Value("5"), false}));

TEST(FilterTest, MissingAttributeNeverMatches) {
  Notification n("t");
  Filter f = Filter::topic("t").where("absent", Op::Exists);
  EXPECT_FALSE(f.matches(n));
}

TEST(FilterTest, TopicExactAndWildcard) {
  Notification n("probe.latency");
  EXPECT_TRUE(Filter::topic("probe.latency").matches(n));
  EXPECT_FALSE(Filter::topic("probe.queue").matches(n));
  EXPECT_TRUE(Filter::topic("probe.*").matches(n));
  EXPECT_FALSE(Filter::topic("gauge.*").matches(n));
  EXPECT_TRUE(Filter::any().matches(n));
}

TEST(FilterTest, ConjunctionOfConstraints) {
  Notification n("t");
  n.set("a", 1).set("b", "x");
  Filter both = Filter::topic("t").where("a", Op::Eq, 1).where("b", Op::Eq, "x");
  EXPECT_TRUE(both.matches(n));
  Filter bad = Filter::topic("t").where("a", Op::Eq, 1).where("b", Op::Eq, "y");
  EXPECT_FALSE(bad.matches(n));
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
      bus.subscribe(Filter::any(), [&](const Notification&) { ++count; });
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
  bus.subscribe(Filter::any(),
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
      bus.subscribe(Filter::any(), [&](const Notification&) { ++count; });
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
