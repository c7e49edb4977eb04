// The event bus. The paper's monitoring infrastructure runs two logical
// buses (a probe bus and a gauge reporting bus) over Siena; Arcadia runs
// each as a SimEventBus, whose deliveries are simulator events with a
// pluggable per-delivery delay model. With the network-aware delay model,
// monitoring messages slow down exactly when the network is congested —
// the paper's "the same network is being used to monitor the system as to
// run it" observation. A QoS mode (prioritized monitoring traffic) removes
// that penalty, implementing the mitigation the paper proposes in Section
// 5.3. The EventBus interface stays abstract so fault::FaultyBus can
// decorate a bus with a lossy substrate.
//
// Hot-path design (the monitoring pipeline pushes millions of notifications
// per fleet run through the bus — about 5.4M on fleet-scale):
//   * topic- and key-indexed routing — a filter is an exact topic with at
//     most one `attr == symbol` key (events::Filter), so subscriptions live
//     in a SymbolMap<topic -> bucket>, and within a bucket either in an
//     unkeyed list or under SymbolMap<attribute -> SymbolMap<value -> slot
//     list>>. A publish looks up its own value for each key attribute in
//     its topic's bucket; the unkeyed list and the lists under its values
//     are exactly its matching subscriptions — one per publish for a
//     one-gauge-per-client table — so no filter runs per delivery;
//   * slot + generation subscriptions — subscriber state lives in pooled
//     slots; unsubscribe bumps the slot's generation, which both drops
//     in-flight deliveries (like messages to a deleted Siena subscription)
//     and lets the slot be reused without invalidating anything. No
//     per-publish snapshot copy of the subscription vector: pending
//     deliveries carry (slot, generation) pairs;
//   * shared-payload delivery — all matched subscribers of one publish see
//     the same immutable notification, recycled through a use_count-scanned
//     pool, so a steady publish stream does not allocate at all.
// Delivery order is subscription order: the selected lists are merged by
// subscription id, so per-subscriber FIFO and cross-subscriber determinism
// hold bit-for-bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "events/filter.hpp"
#include "events/notification.hpp"
#include "sim/simulator.hpp"
#include "util/annotations.hpp"
#include "util/symbol.hpp"

namespace arcadia::events {

using SubscriptionId = std::uint64_t;
using Handler = std::function<void(const Notification&)>;

struct BusStats {
  std::uint64_t published = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_no_match = 0;
};

class EventBus {
 public:
  virtual ~EventBus() = default;

  /// Register a handler; `subscriber_node` is where the subscriber runs
  /// (used by delay models; kNoNode = colocated/no delay).
  virtual SubscriptionId subscribe(Filter filter, Handler handler,
                                   sim::NodeId subscriber_node) = 0;
  SubscriptionId subscribe(Filter filter, Handler handler) {
    return subscribe(std::move(filter), std::move(handler), sim::kNoNode);
  }
  virtual void unsubscribe(SubscriptionId id) = 0;
  /// Queue `n` for every matching subscriber. No handler runs before
  /// publish returns: delivery is always a later simulator event, so a
  /// publisher's own state cannot change under it mid-publish.
  virtual void publish(Notification n) = 0;
  virtual const BusStats& stats() const = 0;
};

namespace detail {

/// The bus's indexed subscription storage: pooled slots with generations,
/// and a topic index whose buckets are further keyed by each filter's key
/// (Filter::key()). Every index list holds slots in subscription order (ids
/// are monotonic), and match iteration merges the lists a notification
/// selects by id, preserving the delivery order of the linear-scan design
/// this replaced. Not synchronized: the bus is single-threaded.
class SubTable {
 public:
  struct Slot {
    SubscriptionId id = 0;  ///< 0 = free
    Filter filter;
    /// Refcounted so a delivery can pin the closure with one atomic bump
    /// before invoking it: a handler that re-entrantly subscribes (the
    /// slot vector may reallocate) or unsubscribes itself stays alive for
    /// the remainder of its own call.
    std::shared_ptr<Handler> handler;
    sim::NodeId node = sim::kNoNode;  ///< where the subscriber runs
    std::uint32_t gen = 1;
  };

  std::uint32_t add(SubscriptionId id, Filter filter, Handler handler,
                    sim::NodeId node) {
    std::uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
    } else {
      slots_.emplace_back();
      idx = static_cast<std::uint32_t>(slots_.size() - 1);
    }
    Slot& s = slots_[idx];
    s.id = id;
    s.filter = std::move(filter);
    s.handler = std::make_shared<Handler>(std::move(handler));
    s.node = node;
    list_for(s.filter).push_back(idx);
    return idx;
  }

  /// Unsubscribe: detach from the index, bump the generation (dropping any
  /// in-flight deliveries holding the old one), and recycle the slot.
  /// Callers must not hold references into the slot across this — the bus
  /// dispatches from a refcounted handler copy, never from the slot.
  bool remove(SubscriptionId id) {
    for (std::uint32_t idx = 0; idx < slots_.size(); ++idx) {
      Slot& s = slots_[idx];
      if (s.id != id) continue;
      std::vector<std::uint32_t>& list = list_for(s.filter);
      list.erase(std::find(list.begin(), list.end(), idx));
      s.id = 0;
      ++s.gen;
      s.handler.reset();
      free_.push_back(idx);
      return true;
    }
    return false;
  }

  bool alive(std::uint32_t idx, std::uint32_t gen) const {
    return idx < slots_.size() && slots_[idx].gen == gen;
  }
  Slot& slot(std::uint32_t idx) { return slots_[idx]; }

  /// Visit the subscriptions matching `n` in subscription order, and
  /// return how many were visited. `fn(slot_index, slot)` must not modify
  /// the table.
  template <typename Fn>
  std::size_t for_matches(const Notification& n, Fn&& fn) {
    const Bucket* bucket = topics_.find(n.topic);
    if (!bucket) return 0;
    runs_.clear();
    add_run(bucket->unkeyed);
    for (const auto& [attr, by_value] : bucket->keyed) {
      const std::optional<util::Symbol> value = key_value(n, attr);
      if (!value) continue;
      if (const auto* list = by_value.find(*value)) add_run(*list);
    }
    std::size_t visited = 0;
    while (!runs_.empty()) {
      std::size_t next = 0;
      for (std::size_t r = 1; r < runs_.size(); ++r) {
        if (slots_[*runs_[r].head].id < slots_[*runs_[next].head].id) {
          next = r;
        }
      }
      Run& run = runs_[next];
      const std::uint32_t idx = *run.head++;
      if (run.head == run.end) runs_.erase(runs_.begin() + next);
      fn(idx, slots_[idx]);
      ++visited;
    }
    return visited;
  }

 private:
  /// One topic's subscriptions: those without a key, and the keyed ones by
  /// key attribute, then key value.
  struct Bucket {
    std::vector<std::uint32_t> unkeyed;
    util::SymbolMap<util::SymbolMap<std::vector<std::uint32_t>>> keyed;
  };
  /// The unvisited rest of one index list during a match merge.
  struct Run {
    const std::uint32_t* head;
    const std::uint32_t* end;
  };

  /// The index list `f` lives in (created on first use).
  std::vector<std::uint32_t>& list_for(const Filter& f) {
    Bucket& bucket = topics_[f.topic_symbol()];
    if (!f.key()) return bucket.unkeyed;
    return bucket.keyed[f.key()->attr][f.key()->value];
  }

  /// `n`'s value for a key attribute as a symbol: a symbol value as is, an
  /// owned string by its text (a text never interned equals no key). Any
  /// other value, or none, cannot equal a key.
  static std::optional<util::Symbol> key_value(const Notification& n,
                                               util::Symbol attr) {
    const Value* v = n.get_if(attr);
    if (!v || !v->is_string()) return std::nullopt;
    if (v->is_symbol()) return v->as_symbol();
    return util::Symbol::lookup(v->as_string());
  }

  void add_run(const std::vector<std::uint32_t>& list) {
    if (list.empty()) return;
    runs_.push_back({list.data(), list.data() + list.size()});
  }

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  util::SymbolMap<Bucket> topics_;
  std::vector<Run> runs_;  ///< merge scratch; keeps its capacity
};

/// Recycles shared notification payloads: a pool entry whose use_count has
/// dropped back to 1 (no pending deliveries) is reused in place, so a
/// steady publish stream performs zero heap allocations.
class PayloadPool {
 public:
  NotificationPtr acquire(Notification&& n) {
    const std::size_t count = pool_.size();
    for (std::size_t step = 0; step < count; ++step) {
      cursor_ = (cursor_ + 1 < count) ? cursor_ + 1 : 0;
      std::shared_ptr<Notification>& slot = pool_[cursor_];
      if (slot.use_count() == 1) {
        *slot = std::move(n);
        return slot;
      }
    }
    pool_.push_back(std::make_shared<Notification>(std::move(n)));
    cursor_ = pool_.size() - 1;
    return pool_.back();
  }

  std::size_t size() const { return pool_.size(); }

 private:
  std::vector<std::shared_ptr<Notification>> pool_;
  std::size_t cursor_ = 0;
};

}  // namespace detail

/// Computes the delivery delay of a notification to a subscriber node.
using DelayModel =
    std::function<SimTime(const Notification&, sim::NodeId subscriber)>;

/// Fixed-delay model (the LAN base cost).
DelayModel fixed_delay(SimTime delay);

/// Network-aware model: base + wire_size / available_bandwidth(source ->
/// subscriber). When `prioritized` (QoS for monitoring traffic) the
/// congestion term is dropped.
DelayModel network_delay(const sim::FlowNetwork& net, SimTime base,
                         bool prioritized);

/// Bus whose deliveries are simulator events. All matched subscribers of a
/// publish share one pooled immutable payload; each pending delivery is a
/// (payload, slot, generation) triple small enough to live inline in the
/// simulator's event slot. Single-threaded, like the simulator itself. With
/// fixed_delay(SimTime::zero()) a delivery runs at the publish time, after
/// the events already queued for that time.
class SimEventBus : public EventBus {
 public:
  SimEventBus(sim::Simulator& sim, DelayModel delay);

  SubscriptionId subscribe(Filter filter, Handler handler,
                           sim::NodeId subscriber_node) override;
  using EventBus::subscribe;
  void unsubscribe(SubscriptionId id) override;
  void publish(Notification n) override;
  const BusStats& stats() const override { return stats_; }

  /// Total queued-but-undelivered notifications (for tests/benches).
  std::uint64_t in_flight() const { return in_flight_; }

 private:
  void deliver(std::uint32_t idx, std::uint32_t gen, const Notification& n);

  sim::Simulator& sim_;
  DelayModel delay_;
  /// Single-threaded by contract (deliveries are simulator events, and the
  /// simulator is single-threaded); the domain turns a cross-thread call
  /// into a debug abort instead of a silent race.
  util::SerialDomain serial_;
  detail::SubTable subs_;
  detail::PayloadPool payloads_;
  SubscriptionId next_id_ = 1;
  BusStats stats_;
  std::uint64_t in_flight_ = 0;
};

}  // namespace arcadia::events
