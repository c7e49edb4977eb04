// Bus edge semantics pinned: dropped_no_match accounting, unsubscribe
// during dispatch, re-entrant publish from a handler, slot reuse,
// key-indexed routing against a brute-force oracle, and the notification's
// small-buffer attribute storage. These are the contracts the topic- and
// key-indexed routing and shared-payload delivery must not bend.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "events/bus.hpp"
#include "zero_delay_bus.hpp"
#include "util/ring_buffer.hpp"

namespace arcadia::events {
namespace {

TEST(BusAccountingTest, SimDroppedNoMatchCountsOnlyUnmatched) {
  sim::Simulator sim;
  SimEventBus bus(sim, fixed_delay(SimTime::millis(1)));
  int hits = 0;
  bus.subscribe(Filter::topic("a"), [&](const Notification&) { ++hits; });
  bus.publish(Notification("a"));  // delivered
  bus.publish(Notification("b"));  // no subscriber at all -> dropped
  // Topic matches but the key does not -> still dropped.
  bus.subscribe(Filter::keyed("c", "k", "x"),
                [&](const Notification&) { ++hits; });
  bus.publish(Notification("c").set("k", "y"));
  sim.run_until(SimTime::seconds(1));
  EXPECT_EQ(hits, 1);
  EXPECT_EQ(bus.stats().published, 3u);
  EXPECT_EQ(bus.stats().delivered, 1u);
  EXPECT_EQ(bus.stats().dropped_no_match, 2u);
}

TEST(BusDispatchTest, SimHandlerMayUnsubscribeItselfAndRepublish) {
  sim::Simulator sim;
  SimEventBus bus(sim, fixed_delay(SimTime::millis(1)));
  int first = 0, second = 0;
  SubscriptionId id = 0;
  id = bus.subscribe(Filter::topic("ping"), [&](const Notification&) {
    ++first;
    bus.unsubscribe(id);
    bus.publish(Notification("pong"));  // re-entrant publish from a delivery
  });
  bus.subscribe(Filter::topic("pong"),
                [&](const Notification&) { ++second; });
  bus.publish(Notification("ping"));
  bus.publish(Notification("ping"));  // second one finds the sub deleted? No —
  // both publishes match (unsubscribe happens at the first delivery), but
  // the second delivery is dropped by the generation check.
  sim.run_until(SimTime::seconds(1));
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(bus.in_flight(), 0u);
}

TEST(BusDispatchTest, SimHandlerMaySubscribeDuringItsOwnDelivery) {
  // Regression: a re-entrant subscribe can reallocate the slot table while
  // a delivery handler is executing; the handler's closure must stay alive
  // through its own call (deliveries pin it by refcount).
  sim::Simulator sim;
  SimEventBus bus(sim, fixed_delay(SimTime::millis(1)));
  int grown = 0, late = 0;
  bus.subscribe(Filter::topic("t"), [&](const Notification&) {
    ++grown;
    // Enough re-entrant subscriptions to force slot-vector growth.
    for (int i = 0; i < 64; ++i) {
      bus.subscribe(Filter::topic("later"),
                    [&](const Notification&) { ++late; });
    }
  });
  bus.publish(Notification("t"));
  sim.run_until(SimTime::seconds(1));
  EXPECT_EQ(grown, 1);
  bus.publish(Notification("later"));
  sim.run_until(SimTime::seconds(2));
  EXPECT_EQ(late, 64);
}

TEST(BusDispatchTest, SimSlotReuseDoesNotLeakOldDeliveries) {
  sim::Simulator sim;
  SimEventBus bus(sim, fixed_delay(SimTime::seconds(1)));
  int stale = 0, fresh = 0;
  SubscriptionId old_id =
      bus.subscribe(Filter::topic("t"), [&](const Notification&) { ++stale; });
  bus.publish(Notification("t"));  // in flight for 1 s
  bus.unsubscribe(old_id);
  // New subscription likely reuses the freed slot; the in-flight delivery
  // carries the old generation and must not reach it.
  bus.subscribe(Filter::topic("t"), [&](const Notification&) { ++fresh; });
  sim.run_until(SimTime::seconds(2));
  EXPECT_EQ(stale, 0);
  EXPECT_EQ(fresh, 0);  // subscribed after the publish: not matched either
  bus.publish(Notification("t"));
  sim.run_until(SimTime::seconds(4));
  EXPECT_EQ(fresh, 1);
}

TEST(BusRoutingTest, UnsubscribeRemovesFromTopicBucket) {
  sim::Simulator sim;
  test::ZeroDelayBus bus(sim);
  int a = 0, b = 0;
  SubscriptionId ida =
      bus.subscribe(Filter::topic("t"), [&](const Notification&) { ++a; });
  bus.subscribe(Filter::topic("t"), [&](const Notification&) { ++b; });
  bus.publish(Notification("t"));
  bus.drain();
  bus.unsubscribe(ida);
  bus.publish(Notification("t"));
  bus.drain();
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
  EXPECT_EQ(bus.stats().delivered, 3u);
}

TEST(BusRoutingTest, KeyedPublishChecksOnlyCandidatesForItsKey) {
  sim::Simulator sim;
  test::ZeroDelayBus bus(sim);
  int hits = 0;
  for (int i = 0; i < 8; ++i) {
    bus.subscribe(
        Filter::keyed("probe.latency", "client", "User" + std::to_string(i)),
        [&](const Notification&) { ++hits; });
  }
  bus.subscribe(Filter::topic("probe.latency"),
                [&](const Notification&) { ++hits; });
  const util::Symbol client = util::Symbol::intern("client");
  // The bus delivers to every subscription the index hands it, so the
  // delivery count is the candidate count. Symbol value: the unkeyed
  // filter plus the one keyed on User3.
  bus.publish(Notification("probe.latency")
                  .set(client, util::Symbol::intern("User3"))
                  .set("value", 1.0));
  bus.drain();
  EXPECT_EQ(bus.stats().delivered, 2u);
  // Owned string: found by its text, same two candidates.
  bus.publish(Notification("probe.latency")
                  .set(client, std::string("User5"))
                  .set("value", 1.0));
  bus.drain();
  EXPECT_EQ(bus.stats().delivered, 4u);
  // A number or a text no filter keys on selects only the unkeyed filter.
  bus.publish(Notification("probe.latency").set(client, 3).set("value", 1.0));
  bus.publish(Notification("probe.latency")
                  .set(client, std::string("never-a-key-text"))
                  .set("value", 1.0));
  bus.drain();
  EXPECT_EQ(bus.stats().delivered, 6u);
  EXPECT_EQ(hits, 6);
}

// ---- Differential routing: the indexed table against a brute-force scan.
// A seeded script of subscribe, unsubscribe and publish steps drives a bus
// and an oracle that runs Filter::matches over every live subscription in
// id order. Each publish must reach exactly the oracle's subscriptions, in
// the oracle's order. Coverage counters prove the script reached each case
// the index treats specially.

struct RoutingCoverage {
  int owned_string_key_hits = 0;  ///< owned-string attribute vs symbol key
  int non_string_key_skips = 0;   ///< key attribute numeric or missing
  int mixed_key_publishes = 0;    ///< one topic keyed on two attributes
  int slot_reuses = 0;            ///< subscribes that took a freed slot
  int spawned_hits = 0;           ///< subscribed during a dispatch
};

class RoutingScript {
 public:
  RoutingScript(SimEventBus& bus, std::uint32_t seed) : bus_(bus), rng_(seed) {}

  /// Runs `steps` random steps; `pump` drains the bus after each publish.
  template <typename Pump>
  void run(int steps, Pump&& pump) {
    for (int step = 0; step < steps; ++step) {
      const std::uint32_t roll = pick(100);
      if ((roll < 30 && live_.size() < 40) || live_.empty()) {
        subscribe(random_filter(), pick(8) == 0);
      } else if (roll < 45) {
        auto it = live_.begin();
        std::advance(it, pick(static_cast<std::uint32_t>(live_.size())));
        bus_.unsubscribe(it->second.id);
        live_.erase(it);
        ++freed_;
      } else {
        publish(pump);
      }
    }
    EXPECT_EQ(bus_.stats().delivered, expected_deliveries_);
  }

  const RoutingCoverage& coverage() const { return cov_; }

 private:
  struct Sub {
    SubscriptionId id = 0;
    Filter filter;
    bool spawned = false;
  };

  std::uint32_t pick(std::uint32_t n) { return rng_() % n; }
  static std::string numbered(const char* stem, std::uint32_t i) {
    std::string text = stem;
    text += std::to_string(i);
    return text;
  }

  Filter random_filter() {
    static const char* const kTopics[] = {"route.a", "route.b", "route.c"};
    const char* topic = kTopics[pick(3)];
    const util::Symbol attr = attr_name(pick(3));
    const std::string text = numbered("U", pick(4));
    switch (pick(3)) {
      case 0: return Filter::topic(topic);
      case 1: return Filter::keyed(topic, attr.view(), text);
      default:
        return Filter::keyed(util::Symbol::intern(topic), attr,
                             util::Symbol::intern(text));
    }
  }

  static util::Symbol attr_name(std::uint32_t i) {
    static const util::Symbol kAttrs[] = {util::Symbol::intern("client"),
                                          util::Symbol::intern("group"),
                                          util::Symbol::intern("kind")};
    return kAttrs[i];
  }

  Notification random_notification() {
    static const char* const kTopics[] = {"route.a", "route.b", "route.c"};
    Notification n(kTopics[pick(3)]);
    for (std::uint32_t a = 0; a < 3; ++a) {
      const std::string text = numbered("U", pick(4));
      switch (pick(5)) {
        case 0: break;  // missing
        case 1: n.set(attr_name(a), util::Symbol::intern(text)); break;
        case 2: n.set(attr_name(a), text); break;  // owned string
        case 3: n.set(attr_name(a), static_cast<int>(pick(3))); break;
        default: n.set(attr_name(a), numbered("fresh-", step_)); break;
      }
    }
    return n;
  }

  void subscribe(Filter filter, bool spawner, bool spawned = false) {
    const int tag = next_tag_++;
    auto handler = [this, tag, spawner,
                    fired = false](const Notification&) mutable {
      got_.push_back(tag);
      // A subscribe during dispatch: the new subscription must miss the
      // notification in flight and see later ones.
      if (spawner && !fired) {
        fired = true;
        subscribe(random_filter(), false, true);
      }
    };
    const SubscriptionId id = bus_.subscribe(filter, std::move(handler));
    if (freed_ > 0) {
      --freed_;
      ++cov_.slot_reuses;
    }
    live_.emplace(tag, Sub{id, std::move(filter), spawned});
  }

  template <typename Pump>
  void publish(Pump& pump) {
    ++step_;
    const Notification n = random_notification();
    std::vector<int> expected;
    std::set<util::Symbol> key_attrs;
    for (const auto& [tag, sub] : live_) {
      const std::optional<FilterKey>& key = sub.filter.key();
      if (key && sub.filter.topic_symbol() == n.topic) {
        key_attrs.insert(key->attr);
        const Value* v = n.get_if(key->attr);
        if (!v || !v->is_string()) ++cov_.non_string_key_skips;
      }
      if (!sub.filter.matches(n)) continue;
      expected.push_back(tag);
      note_hit(sub, n);
    }
    if (key_attrs.size() > 1) ++cov_.mixed_key_publishes;
    got_.clear();
    bus_.publish(n);
    pump();
    EXPECT_EQ(got_, expected) << "publish " << step_;
    expected_deliveries_ += expected.size();
  }

  void note_hit(const Sub& sub, const Notification& n) {
    if (const std::optional<FilterKey>& key = sub.filter.key()) {
      const Value* v = n.get_if(key->attr);
      cov_.owned_string_key_hits += v && !v->is_symbol();
    }
    cov_.spawned_hits += sub.spawned;
  }

  SimEventBus& bus_;
  std::mt19937 rng_;
  std::map<int, Sub> live_;  ///< tag order == subscription order
  std::vector<int> got_;
  std::uint64_t expected_deliveries_ = 0;
  int next_tag_ = 0;
  int freed_ = 0;
  std::uint32_t step_ = 0;
  RoutingCoverage cov_;
};

void ExpectFullCoverage(const RoutingCoverage& cov) {
  EXPECT_GT(cov.owned_string_key_hits, 0);
  EXPECT_GT(cov.non_string_key_skips, 0);
  EXPECT_GT(cov.mixed_key_publishes, 0);
  EXPECT_GT(cov.slot_reuses, 0);
  EXPECT_GT(cov.spawned_hits, 0);
}

TEST(BusRoutingTest, KeyIndexMatchesBruteForceOracleSim) {
  for (std::uint32_t seed : {1u, 2u, 3u}) {
    sim::Simulator sim;
    SimEventBus bus(sim, fixed_delay(SimTime::millis(1)));
    RoutingScript script(bus, seed);
    script.run(3000, [&] { sim.run_until(sim.now() + SimTime::seconds(1)); });
    ExpectFullCoverage(script.coverage());
  }
}

TEST(NotificationTest, GetIfReturnsPointerWithoutCopy) {
  Notification n("t");
  n.set("value", 3.5).set("name", util::Symbol::intern("User3"));
  const Value* v = n.get_if("value");
  ASSERT_NE(v, nullptr);
  EXPECT_DOUBLE_EQ(v->as_double(), 3.5);
  EXPECT_EQ(v, n.get_if(util::Symbol::intern("value")));  // same storage
  EXPECT_EQ(n.get_if("absent"), nullptr);
  // Symbol-valued attributes still read as strings.
  EXPECT_EQ(n.get("name").as_string(), "User3");
  EXPECT_TRUE(n.get("name").is_string());
}

TEST(NotificationTest, AttributeOverflowBeyondInlineCapacity) {
  Notification n("t");
  const int kCount = 20;  // > AttrList::kInlineCap
  for (int i = 0; i < kCount; ++i) {
    n.set("attr" + std::to_string(i), i);
  }
  EXPECT_EQ(n.attributes.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    const Value* v = n.get_if("attr" + std::to_string(i));
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->as_int(), i);
  }
  // Overwrite keeps size and position.
  n.set("attr3", 99);
  EXPECT_EQ(n.attributes.size(), static_cast<std::size_t>(kCount));
  EXPECT_EQ(n.get("attr3").as_int(), 99);
  // Copies preserve the overflowed list.
  Notification copy = n;
  EXPECT_EQ(copy.get("attr19").as_int(), 19);
}

TEST(NotificationTest, FilterMatchesSymbolValuedAttributes) {
  Notification n("probe.latency");
  n.set("client", util::Symbol::intern("User3")).set("value", 1.0);
  // String-built filter vs symbol-valued attribute: equality is textual.
  EXPECT_TRUE(Filter::keyed("probe.latency", "client", "User3").matches(n));
  EXPECT_FALSE(Filter::keyed("probe.latency", "client", "User4").matches(n));
}

TEST(RingBufferTest, FifoAcrossGrowthAndWrap) {
  util::RingBuffer<int> ring;
  for (int i = 0; i < 5; ++i) ring.push_back(i);
  ring.pop_front();
  ring.pop_front();
  for (int i = 5; i < 40; ++i) ring.push_back(i);  // forces growth mid-wrap
  ASSERT_EQ(ring.size(), 38u);
  EXPECT_EQ(ring.front(), 2);
  EXPECT_EQ(ring.back(), 39);
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i], static_cast<int>(i) + 2);
  }
  ring.clear();
  EXPECT_TRUE(ring.empty());
  ring.push_back(7);
  EXPECT_EQ(ring.front(), 7);
}

}  // namespace
}  // namespace arcadia::events
