// Discrete-event simulation kernel. Deterministic: events at equal times run
// in scheduling order (FIFO tie-break by sequence number), so a run is a pure
// function of the initial schedule and the RNG seeds.
//
// The queue is allocation-free on the steady state: callbacks live in a
// pooled slot array inside small-buffer storage (util::SmallFn, >= 48 bytes
// inline), and cancellation is a slot + generation check instead of the
// shared_ptr<bool> token per event this design replaced. Heap traffic only
// happens when the pool or queue grows, or a capture exceeds the inline
// buffer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/error.hpp"
#include "util/small_fn.hpp"
#include "util/units.hpp"

namespace arcadia::sim {

class Simulator;

/// Cancellation token for a scheduled event. Copyable; cheap. Cancelling an
/// already-fired or already-cancelled event is a no-op, and a handle that
/// outlives its Simulator degrades to a safe no-op (the weak liveness token
/// expires with the simulator). valid() is true only while the event is
/// still pending: a cancelled or fired event's handle reports invalid.
class EventHandle {
 public:
  EventHandle() = default;
  void cancel();
  bool valid() const;

 private:
  friend class Simulator;
  EventHandle(std::weak_ptr<Simulator*> sim, std::uint32_t slot,
              std::uint32_t gen)
      : sim_(std::move(sim)), slot_(slot), gen_(gen) {}
  std::weak_ptr<Simulator*> sim_;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

/// The event queue and clock.
class Simulator {
 public:
  Simulator() = default;
  // Pinned identity: self_ captures `this` for handle liveness checks, so
  // the simulator can neither be copied nor moved.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  Simulator(Simulator&&) = delete;
  Simulator& operator=(Simulator&&) = delete;

  SimTime now() const { return now_; }

  /// Set the clock origin of a PRISTINE simulator (nothing executed,
  /// nothing pending); throws SimError otherwise. Restore tooling uses it
  /// to rebuild ad-hoc rigs whose history starts mid-run; the framework's
  /// own recovery path never needs it — recovery re-executes from t = 0
  /// (see DESIGN.md §8), so its clocks always start at zero.
  void seed_clock(SimTime origin) {
    if (executed_ != 0 || live_ != 0) {
      throw SimError("seed_clock on a non-pristine simulator (" +
                     std::to_string(executed_) + " executed, " +
                     std::to_string(live_) + " pending)");
    }
    now_ = origin;
  }

  /// Schedule `fn` at absolute time `at` (>= now). Returns a handle usable
  /// to cancel the event before it fires.
  EventHandle schedule_at(SimTime at, util::SmallFn<void()> fn);

  /// Schedule `fn` after a delay from now.
  EventHandle schedule_in(SimTime delay, util::SmallFn<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Run events until the queue is empty or the next event is after
  /// `horizon`; the clock ends at min(horizon, last event time). Returns the
  /// number of events executed.
  std::uint64_t run_until(SimTime horizon);

  /// Execute the single next event. Returns false if the queue is empty.
  bool step();

  bool empty() const { return live_ == 0; }
  /// Number of pending (scheduled, not yet fired or cancelled) events.
  std::size_t pending() const { return live_; }
  std::uint64_t executed() const { return executed_; }

  /// Time of the next pending event, or SimTime::infinity().
  SimTime next_event_time() const;

  /// Coordinator-facing name for next_event_time(): the time this simulator
  /// would advance to on the next step(), or infinity when idle. Purges
  /// cancelled tombstones, so the answer is exact — SimCoordinator derives
  /// the conservative window bound from it.
  SimTime peek_next_time() const { return next_event_time(); }

  /// Pre-size the slot pool and event heap for ~`events` concurrently
  /// pending events. Scenario builders call this from the ScenarioConfig
  /// estimate so big fleets (fleet-64x256) never pay reallocation storms
  /// mid-run; pool_growths()/queue_growths() stay 0 afterwards on the
  /// steady state (pinned by bench_micro's counting-new hook).
  void reserve(std::size_t events);

  std::size_t slot_capacity() const { return slots_.capacity(); }
  std::size_t queue_capacity() const { return queue_.capacity(); }
  /// Number of times the slot pool grew past its reserved capacity.
  std::uint64_t pool_growths() const { return pool_growths_; }
  /// Number of times the event heap grew past its reserved capacity.
  std::uint64_t queue_growths() const { return queue_growths_; }

 private:
  friend class EventHandle;

  /// Pooled callback storage. A slot is re-armed under a new generation
  /// every time it is reused, so stale queue entries and stale handles are
  /// recognised by a generation mismatch.
  struct Slot {
    util::SmallFn<void()> fn;
    std::uint32_t gen = 1;
    bool armed = false;
  };
  /// Queue entries are 24-byte PODs; the heap never touches the callable
  /// itself.
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t idx);
  bool slot_pending(std::uint32_t idx, std::uint32_t gen) const {
    return idx < slots_.size() && slots_[idx].gen == gen && slots_[idx].armed;
  }
  // Explicit binary heap over queue_ (was std::priority_queue, which hides
  // its container and therefore cannot be reserve()d). Front is the minimum
  // (time, seq) — identical ordering to the old Later-comparator queue.
  void heap_push(const Entry& e) {
    if (queue_.size() == queue_.capacity()) ++queue_growths_;
    queue_.push_back(e);
    std::push_heap(queue_.begin(), queue_.end(), Later{});
  }
  void heap_pop() const {
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    queue_.pop_back();
  }
  /// Pop cancelled tombstones off the queue head so the top entry, if any,
  /// is a live event.
  void drop_stale_top() const;

  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  std::uint64_t pool_growths_ = 0;
  std::uint64_t queue_growths_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  /// Min-heap (via Later + std::push_heap/pop_heap). mutable: lazy tombstone
  /// purging from const observers.
  mutable std::vector<Entry> queue_;
  /// Liveness token handed (weakly) to every EventHandle; dies with the
  /// simulator, so stale handles expire instead of dangling.
  std::shared_ptr<Simulator*> self_ = std::make_shared<Simulator*>(this);
};

/// Repeats a callback at a fixed period starting at `start`, until cancelled
/// or the callback returns false. Used for probe sampling and gauge reports.
class PeriodicTask {
 public:
  /// `fn` returns true to keep going.
  PeriodicTask(Simulator& sim, SimTime start, SimTime period,
               std::function<bool()> fn);
  ~PeriodicTask() { cancel(); }
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  void cancel();
  bool active() const { return *alive_; }

 private:
  void arm(SimTime at);
  Simulator& sim_;
  SimTime period_;
  std::function<bool()> fn_;
  std::shared_ptr<bool> alive_;
  EventHandle next_;
};

}  // namespace arcadia::sim
