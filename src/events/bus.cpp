#include "events/bus.hpp"

#include <algorithm>

namespace arcadia::events {

SubscriptionId LocalEventBus::subscribe(Filter filter, Handler handler,
                                        sim::NodeId /*subscriber_node*/) {
  util::MutexLock lock(mutex_);
  SubscriptionId id = next_id_++;
  subs_.add(id, std::move(filter),
            SubData{std::make_shared<Handler>(std::move(handler))});
  return id;
}

void LocalEventBus::unsubscribe(SubscriptionId id) {
  util::MutexLock lock(mutex_);
  // Immediate slot reuse is safe: dispatched handlers run from
  // snapshot-held shared_ptrs, never from the slot.
  subs_.remove(id);
}

std::unique_ptr<LocalEventBus::Scratch> LocalEventBus::acquire_scratch() {
  // Thread-local, so snapshot buffers need no lock of their own: one buffer
  // per publish depth (re-entrant publishes nest), each keeping its
  // capacity across publishes.
  auto& pool = scratch_pool();
  if (pool.empty()) return std::make_unique<Scratch>();
  auto scratch = std::move(pool.back());
  pool.pop_back();
  return scratch;
}

std::vector<std::unique_ptr<LocalEventBus::Scratch>>&
LocalEventBus::scratch_pool() {
  static thread_local std::vector<std::unique_ptr<Scratch>> pool;
  return pool;
}

void LocalEventBus::publish(Notification n) {
  std::unique_ptr<Scratch> targets = acquire_scratch();
  {
    util::MutexLock lock(mutex_);
    ++stats_.published;
    stats_.filter_checks += subs_.for_candidates(
        n, [&](std::uint32_t, auto& slot, bool topic_prechecked) {
          const bool hit = topic_prechecked
                               ? slot.filter.matches_constraints(n)
                               : slot.filter.matches(n);
          if (hit) targets->push_back(slot.data.handler);
        });
    if (targets->empty()) {
      ++stats_.dropped_no_match;
    } else {
      stats_.delivered += targets->size();
    }
  }
  for (const auto& h : *targets) (*h)(n);
  targets->clear();  // drop handler refs outside the lock; keep capacity
  scratch_pool().push_back(std::move(targets));
}

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
  subs_.add(id, std::move(filter),
            SubData{std::make_shared<Handler>(std::move(handler)),
                    subscriber_node});
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
  std::shared_ptr<Handler> handler = subs_.slot(idx).data.handler;
  (*handler)(n);
}

void SimEventBus::publish(Notification n) {
  serial_.check();
  ++stats_.published;
  n.published = sim_.now();
  NotificationPtr shared = payloads_.acquire(std::move(n));
  bool matched = false;
  stats_.filter_checks += subs_.for_candidates(
      *shared, [&](std::uint32_t idx, auto& slot, bool topic_prechecked) {
        const bool hit = topic_prechecked
                             ? slot.filter.matches_constraints(*shared)
                             : slot.filter.matches(*shared);
        if (!hit) return;
        matched = true;
        SimTime delay = delay_(*shared, slot.data.node);
        ++in_flight_;
        // 32-byte capture: fits the simulator's inline event slot, so a
        // delivery schedules without touching the heap.
        sim_.schedule_in(delay, [this, shared, idx, gen = slot.gen] {
          deliver(idx, gen, *shared);
        });
      });
  if (!matched) ++stats_.dropped_no_match;
}

}  // namespace arcadia::events
