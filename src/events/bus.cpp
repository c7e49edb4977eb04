#include "events/bus.hpp"

#include <algorithm>

namespace arcadia::events {

DelayModel fixed_delay(SimTime delay) {
  return [delay](const Notification&, sim::NodeId) { return delay; };
}

DelayModel network_delay(const sim::FlowNetwork& net, SimTime base,
                         bool prioritized) {
  return [&net, base, prioritized](const Notification& n,
                                   sim::NodeId subscriber) -> SimTime {
    if (prioritized || n.source_node == sim::kNoNode ||
        subscriber == sim::kNoNode || n.source_node == subscriber) {
      return base;
    }
    Bandwidth avail = net.available_bandwidth(n.source_node, subscriber);
    return base + transfer_time(n.wire_size, avail);
  };
}

SimEventBus::SimEventBus(sim::Simulator& sim, DelayModel delay)
    : sim_(sim), delay_(std::move(delay)) {}

SubscriptionId SimEventBus::subscribe(Filter filter, Handler handler,
                                      sim::NodeId subscriber_node) {
  serial_.check();
  SubscriptionId id = next_id_++;
  subs_.add(id, std::move(filter), std::move(handler), subscriber_node);
  return id;
}

void SimEventBus::unsubscribe(SubscriptionId id) {
  serial_.check();
  subs_.remove(id);
}

void SimEventBus::deliver(std::uint32_t idx, std::uint32_t gen,
                          const Notification& n) {
  --in_flight_;
  // Generation mismatch: the subscription was deleted while this delivery
  // was in flight — dropped, like messages to a deleted Siena subscription.
  if (!subs_.alive(idx, gen)) return;
  ++stats_.delivered;
  // Pin the closure (refcount bump, no allocation) before invoking: the
  // handler may re-enter the bus — a re-entrant subscribe can reallocate
  // the slot vector, a self-unsubscribe recycles the slot — and the
  // executing closure must outlive its own call either way.
  std::shared_ptr<Handler> handler = subs_.slot(idx).handler;
  (*handler)(n);
}

void SimEventBus::publish(Notification n) {
  serial_.check();
  ++stats_.published;
  n.published = sim_.now();
  NotificationPtr shared = payloads_.acquire(std::move(n));
  const std::size_t matched = subs_.for_matches(
      *shared, [&](std::uint32_t idx, const detail::SubTable::Slot& slot) {
        SimTime delay = delay_(*shared, slot.node);
        ++in_flight_;
        // 32-byte capture: fits the simulator's inline event slot, so a
        // delivery schedules without touching the heap.
        sim_.schedule_in(delay, [this, shared, idx, gen = slot.gen] {
          deliver(idx, gen, *shared);
        });
      });
  if (matched == 0) ++stats_.dropped_no_match;
}

}  // namespace arcadia::events
