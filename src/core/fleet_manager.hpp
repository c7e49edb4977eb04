// The adaptation control loop (Figure 1, item 4's periodic check) over N
// architectural model *shards* — one ArchitectureManager each, which owns
// the model, checker, and verdict holds but subscribes to nothing. The
// FleetManager is the only loop: a solo Framework runs a one-shard instance
// (unbatched, swept every period, no health tracking); a
// core::Fleet runs one instance over all its tenants from the control
// simulator, with:
//
//   * batched gauge application — reports landing on a shard's gauge bus
//     within a coalescing window are applied in one model pass; reports for
//     the same (element, property) are superseded in place, so a burst of
//     samples costs one property write instead of one per report. When the
//     window spans a sweep period, the sweep is the only reader:
//     read_schedule() publishes when it reads, so gauges can send just the
//     report each sweep will keep (demand-aligned reporting, DESIGN.md §3c);
//   * parallel constraint sweep — the periodic check runs detection on
//     every shard that is not quarantined, concurrently on a
//     util::ThreadPool. Detection is read-only per shard (disjoint models),
//     so threads never contend on model state. Each shard's checker memo is
//     the only verdict cache: a quiet shard's detect() answers every
//     constraint from it.
//
// Determinism contract: parallel evaluation only *detects* violations.
// Violation dispatch — and therefore every repair, every model mutation,
// every scheduled simulator event — happens afterwards on the control
// thread in fixed shard order. A fleet run (core::Fleet, DESIGN.md §9) is
// bit-for-bit identical for any sweep_threads and any simulation-thread
// count: shard windows are serial per shard and the sweep runs at barriers
// where every clock agrees.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/arch_manager.hpp"
#include "events/bus.hpp"
#include "monitor/gauge_manager.hpp"
#include "sim/simulator.hpp"
#include "util/annotations.hpp"
#include "util/symbol.hpp"
#include "util/thread_pool.hpp"

namespace arcadia::core {

/// Batching, threading and health knobs; the sweep cadence is a
/// constructor input (FrameworkConfig::check_period / first_check).
struct FleetManagerConfig {
  /// Gauge reports arriving within this window are applied per-shard in one
  /// pass, newest value per (element, property) winning. Zero applies every
  /// report on delivery (unbatched). A window >= check_period is
  /// sweep-aligned: no per-shard flush timers at all — batches are applied
  /// exactly when the sweep needs them.
  SimTime coalesce_window = SimTime::millis(500);
  /// Worker threads for the parallel sweep; <= 1 sweeps on the simulation
  /// thread (still batched).
  std::size_t sweep_threads = 0;  ///< 0 = hardware concurrency
  /// Per-tenant health state machine (healthy -> degraded -> quarantined ->
  /// recovering). Driven by report silence: gauges report every few
  /// seconds, so a shard that has been silent past degraded_after has lost
  /// its monitoring substrate, and past quarantine_after it is quarantined
  /// — not swept, not dispatched — until reports resume and hold for
  /// recovery_observation. Healthy fleets never trip these (the thresholds
  /// are several report periods), so tracking is on by default.
  bool health_tracking = true;
  SimTime degraded_after = SimTime::seconds(20);
  SimTime quarantine_after = SimTime::seconds(60);
  SimTime recovery_observation = SimTime::seconds(20);
};

/// Per-tenant health (the fleet seam of the failure model).
enum class ShardHealth : std::uint8_t {
  Healthy,
  Degraded,     ///< report silence past degraded_after
  Quarantined,  ///< silence past quarantine_after; sweep + dispatch skipped
  Recovering,   ///< reports resumed; observing before returning to Healthy
};

struct FleetShardStats {
  std::uint64_t reports_enqueued = 0;   ///< gauge reports received
  std::uint64_t reports_coalesced = 0;  ///< superseded inside a batch
  std::uint64_t reports_applied = 0;    ///< property writes that reached the model
  std::uint64_t reports_ignored = 0;    ///< malformed / unknown element
  std::uint64_t batches = 0;            ///< batch flushes
  std::uint64_t sweeps = 0;             ///< detections run
  std::uint64_t sweeps_skipped = 0;     ///< sweeps sat out while quarantined
  std::uint64_t violations = 0;         ///< violations dispatched
  // Health state machine transitions.
  std::uint64_t health_degraded = 0;     ///< entries into Degraded
  std::uint64_t health_quarantined = 0;  ///< entries into Quarantined
  std::uint64_t health_recovered = 0;    ///< returns to Healthy
};

struct FleetStats {
  std::uint64_t sweep_rounds = 0;     ///< periodic sweeps of the whole fleet
  std::uint64_t shards_quarantined = 0;  ///< quarantine entries, fleet-wide
  /// Real (host) wall-clock spent inside run_sweep — flush, health
  /// bookkeeping, parallel detect, ordered dispatch. Each shard's own
  /// detect() share is its ArchManagerStats::check_wall_s, and its
  /// dispatch() share its ArchManagerStats::dispatch_wall_s.
  double sweep_wall_s = 0.0;
};

/// Coordinates the adaptation control loop over N model shards. Shards are
/// registered once at assembly (Framework::start for a solo framework's
/// private loop, Framework::attach_fleet_manager for a core::Fleet's
/// tenants), then start() subscribes the report sinks and arms the
/// periodic sweep.
///
/// Lifetime: every registered manager and gauge bus must outlive this
/// object (or its stop()) — the destructor unsubscribes from the buses.
/// core::Fleet destroys the FleetManager before the tenants for exactly
/// this reason; hand-rolled rigs must declare shards first.
class FleetManager {
 public:
  using ShardId = std::size_t;

  /// Sweeps the fleet every `check_period`, the first `first_check` after
  /// start().
  FleetManager(sim::Simulator& sim, SimTime check_period, SimTime first_check,
               FleetManagerConfig config);
  ~FleetManager();

  FleetManager(const FleetManager&) = delete;
  FleetManager& operator=(const FleetManager&) = delete;

  /// Register a shard: its architecture manager and the gauge bus its
  /// tenant's monitoring reports on. `manager_node` is where the
  /// tenant's control loop runs — reports cross the simulated network to
  /// it, in a solo framework and in a fleet alike. Shard
  /// ids are dense, in registration order — which is also the
  /// deterministic dispatch order.
  ShardId add_shard(std::string name, ArchitectureManager& manager,
                    events::EventBus& gauge_bus,
                    sim::NodeId manager_node = sim::kNoNode);

  /// Subscribe the report sinks and arm the periodic sweep.
  void start();
  void stop();

  std::size_t shard_count() const { return shards_.size(); }
  const std::string& shard_name(ShardId id) const { return shards_[id].name; }
  const FleetShardStats& shard_stats(ShardId id) const {
    return shards_[id].stats;
  }
  ShardHealth shard_health(ShardId id) const { return shards_[id].health; }

  /// Shard-simulator binding (what core::Fleet does for every tenant):
  /// shard `id`'s tenant events run on `clock` (its ShardSimulator) inside
  /// logical lane `lane`. Report enqueueing, coalescing timers, and
  /// liveness stamps then use the shard clock — which leads the control
  /// clock mid-window — and the per-shard SerialDomain keys on the lane, so
  /// windows may migrate between pool workers. Unbound shards — a solo
  /// framework's private loop, whose tenant runs on the loop's own
  /// simulator, and hand-rolled rigs — keep clock = the control simulator
  /// and lane = 0 (the caller's lane or thread). Call after add_shard,
  /// before start().
  void bind_shard_executor(ShardId id, sim::Simulator* clock,
                           std::uintptr_t lane);

  const FleetStats& stats() const { return stats_; }
  std::size_t sweep_threads() const { return pool_ ? pool_->size() : 1; }

  /// When the sweep reads the coalescing slots: first_check after start(),
  /// then every check_period. Null before start() and unless the coalesce
  /// window spans a sweep period — only then is the sweep the slots' one
  /// reader. core::Fleet hands it to every tenant's gauges
  /// (Framework::demand_reports), so each gauge publishes only the report
  /// a sweep would read.
  std::optional<monitor::ReadSchedule> read_schedule() const;

  /// One fleet sweep: flush pending batches, update health, detect
  /// (parallel) on every shard that is not quarantined, dispatch in shard
  /// order. Runs from the periodic task; public so tests and benches can
  /// drive sweeps explicitly. Sweeps run at window barriers, so throws
  /// Error if any shard clock differs from the control clock (a bound
  /// fleet driven with the control simulator's run_until instead of
  /// Fleet::run_until).
  void run_sweep();

 private:
  struct Shard {
    std::string name;
    ArchitectureManager* manager = nullptr;
    events::EventBus* bus = nullptr;
    sim::NodeId manager_node = sim::kNoNode;
    events::SubscriptionId sub = 0;
    events::SubscriptionId lifecycle_sub = 0;

    /// Executor binding (bind_shard_executor): the clock tenant events run
    /// on — the shard's private ShardSimulator, or the control simulator
    /// when unbound — and the SerialLane token of that shard (0 = none).
    /// All per-shard mutation goes through `serial`, keyed on the lane,
    /// instead of the fleet-wide serial_.
    sim::Simulator* clock = nullptr;
    std::uintptr_t lane = 0;
    util::SerialDomain serial;

    /// One slot per distinct (element, role, property) gauge key this shard
    /// has ever reported. The key set is the gauge deployment — stable
    /// across windows — so slots and their index persist: after a key's
    /// first report, enqueue is an integer-keyed lookup plus a value store,
    /// with no parsing, no interning, no notification copies, and (for
    /// numeric values) no allocation. Unbatched shards (coalesce_window 0)
    /// use the slots only to resolve keys.
    struct PendingSlot {
      util::Symbol element;  ///< component, or connector when role set
      util::Symbol role;
      util::Symbol property;
      events::Value value;
      bool armed = false;  ///< holds a value for the current window
    };
    std::vector<PendingSlot> slots;
    /// Address symbol -> property symbol -> slot, as the report carries
    /// them. An address parses to one (element, role) pair, so keys and
    /// slots correspond one to one. Persistent; ~one entry per gauge.
    util::SymbolMap<util::SymbolMap<std::uint32_t>> slot_index;
    /// Armed slots in first-touch order — the deterministic apply order.
    std::vector<std::uint32_t> touched;
    sim::EventHandle flush_timer;

    // Health state machine (evaluated on the sim thread each sweep).
    ShardHealth health = ShardHealth::Healthy;
    SimTime last_report_at;    ///< any gauge report counts as liveness
    SimTime recovering_since;  ///< entry time of the Recovering state

    FleetShardStats stats;
  };

  void enqueue(ShardId id, const events::Notification& n);
  void apply(Shard& shard, const Shard::PendingSlot& slot);
  void note_lifecycle(ShardId id, const events::Notification& n);
  void update_health(ShardId id);
  /// Apply a shard's pending coalesced reports (before every sweep, and
  /// when the shard's window timer fires).
  void flush(ShardId id);

  sim::Simulator& sim_;
  const SimTime check_period_;
  const SimTime first_check_;
  FleetManagerConfig config_;
  /// Concurrency capability: each shard's state is owned by its serial
  /// execution context — the shard's lane (windows migrate between pool
  /// workers but are serial per shard, and barrier-time work re-enters the
  /// lane), or the control thread for unbound shards. run_sweep farms the
  /// *detection* phase to the pool, but those tasks only call const
  /// ArchitectureManager::detect() on disjoint models — every write to a
  /// Shard (enqueue, flush, dispatch, stats) happens inside its lane,
  /// which debug builds assert via Shard::serial;
  /// fleet-wide control state stays behind serial_.
  std::vector<Shard> shards_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<sim::PeriodicTask> sweep_task_;
  SimTime first_sweep_;  ///< set by start()
  bool started_ = false;
  FleetStats stats_;
  util::SerialDomain serial_;
};

}  // namespace arcadia::core
