// The adaptation framework facade: wires the three layers of Figure 1 over
// a built testbed — monitoring (probes -> gauges -> architecture manager),
// the architectural model with its constraints, the repair engine, and the
// translator back down to the environment manager.
#pragma once

#include <memory>

#include "acme/script.hpp"
#include "core/arch_manager.hpp"
#include "core/fleet_manager.hpp"
#include "durability/plane.hpp"
#include "events/bus.hpp"
#include "fault/profile.hpp"
#include "monitor/gauge_manager.hpp"
#include "monitor/probes.hpp"
#include "remos/remos.hpp"
#include "repair/engine.hpp"
#include "repair/scripts.hpp"
#include "runtime/environment.hpp"
#include "runtime/model_builder.hpp"
#include "runtime/queries.hpp"
#include "runtime/translator.hpp"
#include "sim/scenario.hpp"
#include "task/task.hpp"

namespace arcadia::fault {
class FaultPlane;
class FaultyBus;
class FaultyTranslator;
}  // namespace arcadia::fault

namespace arcadia::core {

/// Startup semantic verification (core/verify.hpp) behavior.
enum class VerifyMode {
  Off,   ///< skip verification entirely
  Warn,  ///< log every issue, never fail (the default)
  Error, ///< log every issue; throw if any has error severity
};

/// Every setting, declared once: a part's own knobs stay in that part's
/// config struct (`repair`, `gauge_costs`), handed over as they are.
struct FrameworkConfig {
  /// Task-layer objectives: the model's maxLatency, and the script globals
  /// of the checker and the engine (task::bind_task_globals).
  task::PerformanceProfile profile;

  /// Repair-script source; empty selects repair::extended_script(). Every
  /// repair strategy runs as this script.
  std::string script_source;

  /// Gauge costs, report period, watchdog, and caching/relocation
  /// (Section 5.3's proposed speed-up) vs destroy-and-create.
  monitor::GaugeManagerConfig gauge_costs;

  /// Pre-query Remos at start-up, as the paper's experiment did.
  bool remos_prequery = true;

  /// Prioritize monitoring traffic (QoS) instead of sharing the
  /// application's network.
  bool monitoring_qos = false;
  SimTime bus_base_delay = SimTime::millis(50);

  SimTime probe_period = SimTime::seconds(1);
  SimTime gauge_window = SimTime::seconds(30);
  /// The check cadence of the solo loop and of a coordinated fleet's sweep.
  SimTime check_period = SimTime::seconds(5);
  SimTime first_check = SimTime::seconds(15);

  /// Fault injection (the scenario's profile, handed over by
  /// adopt_scenario_fault unless the caller enabled one). When enabled, the
  /// framework constructs a FaultPlane, wraps the probe/gauge buses and the
  /// translator in their faulty decorators, arms the gauge-liveness
  /// watchdog, and schedules the tenant-crash draw at start().
  fault::FaultProfile fault;

  /// The style's element and role names, read by the model builder, the
  /// translator, the repair engine and the default gauges.
  repair::StyleConventions conventions;

  /// Run arcverify's semantic checks (script effect/flow analysis +
  /// cross-artifact deployment verification) at the end of start().
  VerifyMode verify = VerifyMode::Warn;

  /// Durability plane (durability/plane.hpp): an empty dir (the default)
  /// disables journaling/snapshots entirely — bit-identical behavior and
  /// zero overhead. With a dir set, the framework owns a DurabilityPlane,
  /// journals every repair commit / plan event / applied gauge delta, and
  /// snapshots periodically; see core/recovery.hpp for crash restore.
  durability::Options durability;

  /// The repair engine's own settings (violation policy, damping, plan
  /// shape and preemption, retry), handed to it as they are.
  repair::RepairEngineConfig repair;
};

/// The scenario's fault profile rides into `config` unless the caller
/// enabled one (an explicit profile wins) — the one hand-off rule of the
/// experiment runner, the fleet, the recovery driver and arcverify.
void adopt_scenario_fault(FrameworkConfig& config,
                          const sim::ScenarioConfig& scenario);

/// The framework's substitutable parts. A null member selects the default
/// wiring (what the paper's experiment ran).
struct FrameworkParts {
  using BusFactory = std::function<std::unique_ptr<events::SimEventBus>(
      sim::Simulator&, sim::Testbed&, const FrameworkConfig&)>;
  using TranslatorFactory = std::function<std::unique_ptr<repair::Translator>(
      rt::SimEnvironmentManager&, const FrameworkConfig&)>;
  using GaugeDeployer =
      std::function<void(sim::Simulator&, sim::Testbed&, monitor::GaugeManager&,
                         const FrameworkConfig&)>;

  BusFactory probe_bus;          ///< default: fixed 5 ms colocated delivery
  BusFactory gauge_bus;          ///< default: shared-network delay (+QoS knob)
  TranslatorFactory translator;  ///< default: rt::SimTranslator
  GaugeDeployer gauges;          ///< default: latency/bw per client, load/util
                                 ///  per group
};

class Framework {
 public:
  Framework(sim::Simulator& sim, sim::Testbed& testbed, FrameworkConfig config);
  /// Assemble with substituted parts.
  Framework(sim::Simulator& sim, sim::Testbed& testbed, FrameworkConfig config,
            FrameworkParts parts);
  ~Framework();

  Framework(const Framework&) = delete;
  Framework& operator=(const Framework&) = delete;

  /// Deploy probes and gauges, warm Remos, arm constraint checking: a
  /// private one-shard FleetManager (detection_loop()), unless the
  /// framework was attached to a fleet's FleetManager.
  void start();

  model::System& system() { return *system_; }
  const acme::Script& script() const { return script_; }
  repair::RepairEngine& engine() { return *engine_; }
  ArchitectureManager& manager() { return *manager_; }
  /// The private detection loop: a one-shard FleetManager (shard 0) built at
  /// start() on config().check_period/first_check, applying every report on
  /// delivery and detecting + dispatching every period. Null before start()
  /// and for a framework attached to a fleet.
  FleetManager* detection_loop() { return loop_.get(); }
  monitor::GaugeManager& gauges() { return *gauge_manager_; }
  remos::RemosService& remos() { return *remos_; }
  rt::SimEnvironmentManager& environment() { return *env_; }
  repair::Translator& translator() { return *translator_; }
  events::SimEventBus& probe_bus() { return *probe_bus_; }
  events::SimEventBus& gauge_bus() { return *gauge_bus_; }
  const FrameworkConfig& config() const { return config_; }
  /// Null unless config().fault.enabled.
  fault::FaultPlane* fault_plane() { return fault_plane_.get(); }

  /// The journal/snapshot plane this framework owns (config().durability),
  /// or null when durability is off — always for fleet tenants, whose
  /// journal is the Fleet's.
  durability::DurabilityPlane* durability_plane() {
    return durability_plane_.get();
  }

  /// Journal into a bare JournalSink under `shard`: a fleet gives every
  /// tenant a per-shard durability::StagingSink (drained into the shared
  /// plane at window barriers), so tenants never touch the single-writer
  /// plane from pool workers. durability_plane() stays null — snapshot
  /// capture stays with the Fleet, which owns the real plane. Call before
  /// start().
  void attach_journal_sink(durability::JournalSink* sink, std::uint32_t shard);

  /// Hand detection to a fleet: registers this framework's model shard and
  /// gauge bus with `fleet_manager` as `name` and returns the shard id, so
  /// start() arms no private loop. Call before start().
  FleetManager::ShardId attach_fleet_manager(FleetManager& fleet_manager,
                                             std::string name);

  /// A fleet's sweep reads this tenant's reports only at `reads`
  /// (FleetManager::read_schedule). When every report lands after a fixed
  /// delay — monitoring_qos on (bus_base_delay), the default gauge bus, no
  /// fault plane, no gauge watchdog — and the default gauges' window spans
  /// a read period plus a report period, the gauges then publish only the
  /// ticks those reads consume; otherwise every tick keeps reporting.
  /// Call after start(), before the gauges go live.
  void demand_reports(const monitor::ReadSchedule& reads);

  /// Capture this framework's durable state for a snapshot: the full model
  /// encoding + digest, every gauge channel's liveness state, and the fault
  /// plane's RNG stream positions. Health is Healthy here; the fleet's
  /// snapshot task overwrites it from FleetManager::shard_health().
  durability::ShardSnapshot capture_shard_snapshot() const;

 private:
  void deploy_gauges();
  void warm_remos();
  /// The shard name of a solo run (snapshots, the private loop).
  std::string solo_name() const;

  sim::Simulator& sim_;
  sim::Testbed& testbed_;
  FrameworkConfig config_;
  FrameworkParts parts_;

  std::unique_ptr<remos::RemosService> remos_;
  std::unique_ptr<events::SimEventBus> probe_bus_;
  std::unique_ptr<events::SimEventBus> gauge_bus_;
  // Fault plane + decorators (null unless config_.fault.enabled). The
  // wrapped buses carry only *publishes*; subscriptions stay on the inner
  // buses, so accessors above keep returning the real SimEventBus.
  std::unique_ptr<fault::FaultPlane> fault_plane_;
  std::unique_ptr<fault::FaultyBus> lossy_probe_bus_;
  std::unique_ptr<fault::FaultyBus> lossy_gauge_bus_;
  std::unique_ptr<fault::FaultyTranslator> flaky_translator_;
  std::unique_ptr<model::System> system_;
  acme::Script script_;
  std::unique_ptr<rt::SimEnvironmentManager> env_;
  std::unique_ptr<rt::SimRuntimeQueries> queries_;
  std::unique_ptr<repair::Translator> translator_;
  std::unique_ptr<monitor::GaugeManager> gauge_manager_;
  std::unique_ptr<repair::RepairEngine> engine_;
  std::unique_ptr<ArchitectureManager> manager_;
  monitor::ProbeSet probes_;
  // Durability: the owned plane (solo mode; null when config_.durability is
  // empty) and the shard this framework journals and snapshots as.
  std::unique_ptr<durability::DurabilityPlane> durability_plane_;
  std::uint32_t durability_shard_ = 0;
  std::unique_ptr<sim::PeriodicTask> snapshot_task_;
  bool fleet_attached_ = false;
  bool started_ = false;
  /// Declared last: it holds subscriptions on gauge_bus_ and points at
  /// manager_, so it is destroyed before either.
  std::unique_ptr<FleetManager> loop_;
};

}  // namespace arcadia::core
