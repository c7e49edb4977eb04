#include "core/fleet_manager.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "monitor/topics.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/symbol.hpp"

namespace arcadia::core {

FleetManager::FleetManager(sim::Simulator& sim, SimTime check_period,
                           SimTime first_check, FleetManagerConfig config)
    : sim_(sim),
      check_period_(check_period),
      first_check_(first_check),
      config_(config) {}

FleetManager::~FleetManager() { stop(); }

FleetManager::ShardId FleetManager::add_shard(std::string name,
                                              ArchitectureManager& manager,
                                              events::EventBus& gauge_bus,
                                              sim::NodeId manager_node) {
  serial_.check();
  if (started_) throw Error("FleetManager: add_shard after start");
  Shard shard;
  shard.name = std::move(name);
  shard.manager = &manager;
  shard.bus = &gauge_bus;
  shard.manager_node = manager_node;
  shard.clock = &sim_;  // unbound default; bind_shard_executor overrides
  shards_.push_back(std::move(shard));
  return shards_.size() - 1;
}

void FleetManager::bind_shard_executor(ShardId id, sim::Simulator* clock,
                                       std::uintptr_t lane) {
  serial_.check();
  if (started_) throw Error("FleetManager: bind_shard_executor after start");
  shards_[id].clock = clock;
  shards_[id].lane = lane;
}

void FleetManager::start() {
  serial_.check();
  if (started_) throw Error("FleetManager::start called twice");
  started_ = true;
  // The pool is sized only now, when the shard count is known: more workers
  // than shards could never receive a chunk, and a small fleet should not
  // carry a hardware_concurrency-sized pool of idle threads.
  std::size_t threads = config_.sweep_threads;
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  threads = std::min(threads, shards_.size());
  if (threads > 1 && !pool_) pool_ = std::make_unique<ThreadPool>(threads);
  for (ShardId id = 0; id < shards_.size(); ++id) {
    Shard& shard = shards_[id];
    // The bus belongs to the shard's serial context: subscribe from inside
    // its lane so the bus's own SerialDomain keys on the lane, not on
    // whichever thread assembles the fleet.
    util::SerialLane in_lane(shard.lane);
    shard.sub = shard.bus->subscribe(
        events::Filter::topic(monitor::topics::kGaugeReportSym),
        [this, id](const events::Notification& n) { enqueue(id, n); },
        shard.manager_node);
    // Route the watchdog's suspect/cleared marks into the shard manager's
    // verdict holds.
    shard.lifecycle_sub = shard.bus->subscribe(
        events::Filter::topic(monitor::topics::kGaugeLifecycleSym),
        [this, id](const events::Notification& n) { note_lifecycle(id, n); },
        shard.manager_node);
    // Registration counts as liveness: a shard is not silent until it has
    // had degraded_after of quiet from the moment the fleet starts.
    shard.last_report_at = shard.clock->now();
  }
  first_sweep_ = sim_.now() + first_check_;
  sweep_task_ = std::make_unique<sim::PeriodicTask>(
      sim_, first_sweep_, check_period_, [this] {
        run_sweep();
        return true;
      });
  ARC_INFO << "fleet: started (" << shards_.size() << " shards, "
           << sweep_threads() << " sweep threads, coalesce "
           << config_.coalesce_window.as_seconds() << " s)";
}

void FleetManager::stop() {
  serial_.check();
  sweep_task_.reset();
  for (Shard& shard : shards_) {
    util::SerialLane in_lane(shard.lane);  // bus + timer live in the lane
    if (shard.sub != 0) {
      shard.bus->unsubscribe(shard.sub);
      shard.sub = 0;
    }
    if (shard.lifecycle_sub != 0) {
      shard.bus->unsubscribe(shard.lifecycle_sub);
      shard.lifecycle_sub = 0;
    }
    shard.flush_timer.cancel();
    for (std::uint32_t idx : shard.touched) shard.slots[idx].armed = false;
    shard.touched.clear();
  }
  started_ = false;
}

std::optional<monitor::ReadSchedule> FleetManager::read_schedule() const {
  // A shorter window flushes between sweeps on its own timer, so reports
  // overwritten in the slot before a sweep would still have been applied.
  if (!started_ || config_.coalesce_window < check_period_) {
    return std::nullopt;
  }
  return monitor::ReadSchedule{first_sweep_, check_period_};
}

void FleetManager::apply(Shard& shard, const Shard::PendingSlot& slot) {
  switch (shard.manager->apply_gauge_value(slot.element, slot.role,
                                           slot.property, slot.value)) {
    case ArchitectureManager::GaugeApply::Applied:
      ++shard.stats.reports_applied;
      break;
    case ArchitectureManager::GaugeApply::Unchanged:  // dead-band repeat
      break;
    case ArchitectureManager::GaugeApply::NoTarget:
      ++shard.stats.reports_ignored;
      break;
  }
}

void FleetManager::note_lifecycle(ShardId id, const events::Notification& n) {
  util::Symbol element, phase;
  if (!ArchitectureManager::parse_gauge_lifecycle(n, element, phase)) return;
  Shard& shard = shards_[id];
  shard.serial.check();
  const bool suspect = phase == monitor::topics::kPhaseSuspect;
  if (!suspect && phase != monitor::topics::kPhaseCleared) return;
  shard.manager->note_gauge_liveness(element, suspect);
}

void FleetManager::enqueue(ShardId id, const events::Notification& n) {
  Shard& shard = shards_[id];
  // Delivered on the shard's clock, inside its lane (a pool worker under
  // the sharded kernel). Everything touched below is this shard's state.
  shard.serial.check();
  ++shard.stats.reports_enqueued;
  // Any report — even one the parse below rejects — proves the tenant's
  // monitoring path is alive.
  shard.last_report_at = shard.clock->now();
  const events::Value* address = n.get_if(monitor::topics::kAttrElementSym);
  const events::Value* property = n.get_if(monitor::topics::kAttrPropertySym);
  const events::Value* value = n.get_if(monitor::topics::kAttrValueSym);
  if (!address || !property || !value || !address->is_string() ||
      !property->is_string()) {
    ++shard.stats.reports_ignored;  // malformed, same verdict as unbatched
    return;
  }
  // Resolve the key's persistent slot from the report's own symbols; the
  // address is parsed (and a connector role interned) only on first sight.
  const util::Symbol address_sym = address->to_symbol();
  const util::Symbol property_sym = property->to_symbol();
  util::SymbolMap<std::uint32_t>* by_property =
      shard.slot_index.find(address_sym);
  const std::uint32_t* found =
      by_property ? by_property->find(property_sym) : nullptr;
  if (!found) {
    Shard::PendingSlot fresh;
    if (!ArchitectureManager::parse_gauge_address(address_sym, fresh.element,
                                                  fresh.role)) {
      ++shard.stats.reports_ignored;
      return;
    }
    fresh.property = property_sym;
    found = &shard.slot_index[address_sym].insert_or_assign(
        property_sym, static_cast<std::uint32_t>(shard.slots.size()));
    shard.slots.push_back(std::move(fresh));
  }
  const std::uint32_t index = *found;
  Shard::PendingSlot& slot = shard.slots[index];
  slot.value = *value;
  if (config_.coalesce_window <= SimTime::zero()) {
    apply(shard, slot);
    return;
  }

  // Coalesce: a newer report supersedes the armed value in place — one
  // model write per key per window.
  if (slot.armed) {
    ++shard.stats.reports_coalesced;
    return;
  }
  slot.armed = true;
  shard.touched.push_back(index);
  // Sweep-aligned batching: when the window spans a whole sweep period the
  // periodic sweep's own flush is always soon enough — no timer needed.
  if (config_.coalesce_window >= check_period_) return;
  if (!shard.flush_timer.valid()) {
    // On the shard's own clock: under the sharded kernel the timer must
    // fire inside a window (in the shard's lane), not on the control loop.
    shard.flush_timer = shard.clock->schedule_in(config_.coalesce_window,
                                                 [this, id] { flush(id); });
  }
}

void FleetManager::update_health(ShardId id) {
  Shard& shard = shards_[id];
  const SimTime silence = sim_.now() - shard.last_report_at;
  const ShardHealth prev = shard.health;
  switch (shard.health) {
    case ShardHealth::Healthy:
      if (silence > config_.quarantine_after) {
        shard.health = ShardHealth::Quarantined;
      } else if (silence > config_.degraded_after) {
        shard.health = ShardHealth::Degraded;
      }
      break;
    case ShardHealth::Degraded:
      if (silence > config_.quarantine_after) {
        shard.health = ShardHealth::Quarantined;
      } else if (silence <= config_.degraded_after) {
        shard.health = ShardHealth::Recovering;
        shard.recovering_since = sim_.now();
      }
      break;
    case ShardHealth::Quarantined:
      if (silence <= config_.degraded_after) {
        shard.health = ShardHealth::Recovering;
        shard.recovering_since = sim_.now();
      }
      break;
    case ShardHealth::Recovering:
      if (silence > config_.degraded_after) {
        shard.health = ShardHealth::Degraded;  // relapsed while observing
      } else if (sim_.now() - shard.recovering_since >=
                 config_.recovery_observation) {
        shard.health = ShardHealth::Healthy;
      }
      break;
  }
  if (shard.health == prev) return;
  switch (shard.health) {
    case ShardHealth::Healthy:
      ++shard.stats.health_recovered;
      break;
    case ShardHealth::Degraded:
      ++shard.stats.health_degraded;
      break;
    case ShardHealth::Quarantined:
      ++shard.stats.health_quarantined;
      ++stats_.shards_quarantined;
      ARC_WARN << "fleet: shard '" << shard.name << "' quarantined after "
               << silence.as_seconds() << " s of report silence";
      break;
    case ShardHealth::Recovering:
      break;
  }
}

void FleetManager::flush(ShardId id) {
  Shard& shard = shards_[id];
  util::SerialLane in_lane(shard.lane);
  shard.serial.check();
  shard.flush_timer.cancel();
  if (shard.touched.empty()) return;
  ++shard.stats.batches;
  // One model pass, in first-touch order of each key. Keys are distinct
  // (element, role, property) triples, so relative order cannot change the
  // resulting model state.
  for (std::uint32_t idx : shard.touched) {
    Shard::PendingSlot& slot = shard.slots[idx];
    apply(shard, slot);
    slot.armed = false;
  }
  shard.touched.clear();  // capacity retained: steady state allocates nothing
}

void FleetManager::run_sweep() {
  serial_.check();
  for (const Shard& shard : shards_) {
    if (shard.clock->now() != sim_.now()) {
      throw Error("FleetManager: sweep at control time " +
                  std::to_string(sim_.now().as_seconds()) + " s but shard '" +
                  shard.name + "' is at " +
                  std::to_string(shard.clock->now().as_seconds()) +
                  " s; drive the fleet with Fleet::run_until");
    }
  }
  const auto wall0 = std::chrono::steady_clock::now();
  ++stats_.sweep_rounds;
  // Apply everything still coalescing so this sweep sees values at least as
  // fresh as an unbatched manager would at the same instant. Sweeps run at
  // barriers: every shard clock equals the control clock here, and flush
  // re-enters each shard's lane itself.
  for (ShardId id = 0; id < shards_.size(); ++id) flush(id);

  std::vector<ShardId> sweep;
  sweep.reserve(shards_.size());
  for (ShardId id = 0; id < shards_.size(); ++id) {
    Shard& shard = shards_[id];
    // Health touches shard state: enter its lane.
    util::SerialLane in_lane(shard.lane);
    if (config_.health_tracking) update_health(id);
    // Degraded-mode fleet: a quarantined shard is neither swept nor
    // dispatched this round — its verdicts are held, not acted on, until
    // the monitoring substrate returns.
    if (config_.health_tracking &&
        shard.health == ShardHealth::Quarantined) {
      ++shard.stats.sweeps_skipped;
    } else {
      sweep.push_back(id);
    }
  }

  // Parallel detection: read-only per shard, disjoint models, results into
  // disjoint slots. Dispatch below stays strictly on this thread.
  std::vector<std::vector<repair::Violation>> found(shards_.size());
  auto detect_one = [&](std::size_t k) {
    const ShardId id = sweep[k];
    found[id] = shards_[id].manager->detect();
  };
  if (pool_ && sweep.size() > 1) {
    pool_->parallel_for(sweep.size(), detect_one);
  } else {
    for (std::size_t k = 0; k < sweep.size(); ++k) detect_one(k);
  }

  // Deterministic dispatch, shard order.
  for (const ShardId id : sweep) {
    Shard& shard = shards_[id];
    // Dispatch mutates the shard's model and schedules tenant events.
    util::SerialLane in_lane(shard.lane);
    ++shard.stats.sweeps;
    shard.stats.violations += found[id].size();
    shard.manager->dispatch(found[id]);
  }
  stats_.sweep_wall_s +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
}

}  // namespace arcadia::core
