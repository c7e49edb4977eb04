#include "core/framework.hpp"

#include "acme/checker.hpp"
#include "core/verify.hpp"
#include "durability/model_codec.hpp"
#include "fault/fault_plane.hpp"
#include "fault/faulty_bus.hpp"
#include "fault/faulty_translator.hpp"
#include "model/types.hpp"
#include "monitor/gauge.hpp"
#include "util/log.hpp"

namespace arcadia::core {

void adopt_scenario_fault(FrameworkConfig& config,
                          const sim::ScenarioConfig& scenario) {
  if (!config.fault.enabled && scenario.fault.enabled) {
    config.fault = scenario.fault;
  }
}

Framework::Framework(sim::Simulator& sim, sim::Testbed& testbed,
                     FrameworkConfig config)
    : Framework(sim, testbed, std::move(config), FrameworkParts{}) {}

Framework::Framework(sim::Simulator& sim, sim::Testbed& testbed,
                     FrameworkConfig config, FrameworkParts parts)
    : sim_(sim),
      testbed_(testbed),
      config_(std::move(config)),
      parts_(std::move(parts)),
      script_(acme::parse_script(config_.script_source.empty()
                                     ? repair::extended_script()
                                     : config_.script_source)) {
  // Static-check the repair script against the style before trusting it
  // with the live model (misspelled properties, bad arities, ...).
  {
    static const model::Style style = model::client_server_style();
    const acme::Vocabulary vocabulary =
        repair::client_server_vocabulary(config_.conventions);
    acme::ScriptChecker checker(style, vocabulary);
    for (const acme::CheckIssue& problem : checker.check_script(script_)) {
      ARC_WARN << "repair script: " << problem.to_string();
    }
  }

  sim::GridApp& app = *testbed_.app;

  remos_ = std::make_unique<remos::RemosService>(sim_, *testbed_.net);

  // Probe bus: probes and gauges are effectively colocated per machine, so
  // delivery is a small fixed cost. Gauge bus: reports cross the shared
  // network to the manager machine, so congestion delays them — unless the
  // QoS option prioritizes monitoring traffic (Section 5.3).
  probe_bus_ = parts_.probe_bus
                   ? parts_.probe_bus(sim_, testbed_, config_)
                   : std::make_unique<events::SimEventBus>(
                         sim_, events::fixed_delay(SimTime::millis(5)));
  gauge_bus_ = parts_.gauge_bus
                   ? parts_.gauge_bus(sim_, testbed_, config_)
                   : std::make_unique<events::SimEventBus>(
                         sim_, events::network_delay(*testbed_.net,
                                                     config_.bus_base_delay,
                                                     config_.monitoring_qos));

  // Fault plane first, so the decorators below can reference it. Disabled
  // profiles construct nothing — the wiring is bit-identical to pre-fault
  // builds.
  if (config_.fault.enabled) {
    fault_plane_ = std::make_unique<fault::FaultPlane>(sim_, config_.fault);
    lossy_probe_bus_ =
        std::make_unique<fault::FaultyBus>(sim_, *probe_bus_, *fault_plane_);
    lossy_gauge_bus_ =
        std::make_unique<fault::FaultyBus>(sim_, *gauge_bus_, *fault_plane_);
  }

  rt::ModelBuildOptions model_opts;
  model_opts.conventions = config_.conventions;
  model_opts.max_latency = config_.profile.max_latency;
  system_ = rt::build_grid_model(testbed_, model_opts);
  task::apply_profile(*system_, config_.profile);

  env_ = std::make_unique<rt::SimEnvironmentManager>(app, *testbed_.topo,
                                                     *remos_);
  queries_ = std::make_unique<rt::SimRuntimeQueries>(app, *env_, *remos_);
  translator_ = parts_.translator
                    ? parts_.translator(*env_, config_)
                    : std::make_unique<rt::SimTranslator>(*env_,
                                                          config_.conventions);

  monitor::GaugeManagerConfig gauge_cfg = config_.gauge_costs;
  if (fault_plane_ && gauge_cfg.watchdog_period <= SimTime::zero()) {
    // Faults are on but nobody armed the watchdog: channel disconnects
    // would silently starve the model. Default to one report period.
    gauge_cfg.watchdog_period = SimTime::seconds(5);
  }
  // Gauges publish reports into the lossy bus (when faults are on); their
  // probe subscriptions and lifecycle events are control-path and go
  // through either way.
  gauge_manager_ = std::make_unique<monitor::GaugeManager>(
      sim_, *probe_bus_,
      lossy_gauge_bus_ ? static_cast<events::EventBus&>(*lossy_gauge_bus_)
                       : *gauge_bus_,
      gauge_cfg);
  if (fault_plane_) gauge_manager_->set_fault_plane(fault_plane_.get());

  repair::Translator* engine_translator = translator_.get();
  if (fault_plane_) {
    flaky_translator_ = std::make_unique<fault::FaultyTranslator>(
        *translator_, *fault_plane_);
    engine_translator = flaky_translator_.get();
  }
  engine_ = std::make_unique<repair::RepairEngine>(
      sim_, *system_, script_, queries_.get(), engine_translator,
      gauge_manager_.get(), config_.repair, config_.profile,
      config_.conventions);

  manager_ = std::make_unique<ArchitectureManager>(sim_, *system_, *engine_);

  // Task-layer thresholds visible in constraint expressions.
  repair::ConstraintChecker& checker = manager_->checker();
  task::bind_task_globals(checker, config_.profile);
  checker.instantiate(script_);

  // Durability plane last: every collaborator it journals for exists now.
  // Solo runs journal as shard 0; a fleet tenant instead stages into a
  // sink the Fleet attaches.
  if (config_.durability.enabled()) {
    durability_plane_ =
        std::make_unique<durability::DurabilityPlane>(config_.durability);
    attach_journal_sink(durability_plane_.get(), /*shard=*/0);
  }
}

Framework::~Framework() = default;

void Framework::attach_journal_sink(durability::JournalSink* sink,
                                    std::uint32_t shard) {
  durability_shard_ = shard;
  engine_->set_journal_sink(sink, shard);
  manager_->set_journal_sink(sink, shard);
}

FleetManager::ShardId Framework::attach_fleet_manager(
    FleetManager& fleet_manager, std::string name) {
  if (started_) throw Error("Framework::attach_fleet_manager after start");
  fleet_attached_ = true;
  return fleet_manager.add_shard(std::move(name), *manager_, *gauge_bus_,
                                 testbed_.manager_node);
}

void Framework::demand_reports(const monitor::ReadSchedule& reads) {
  // Skipping a tick is invisible to the reader only if every report lands
  // exactly bus_base_delay after it is sent and nothing but the reader
  // watches arrivals. A network-shared bus delays by congestion; the fault
  // plane drops, duplicates, delays and disconnects reports; the watchdog
  // times silences.
  const bool fixed_delay = config_.monitoring_qos && !parts_.gauge_bus;
  if (!fixed_delay || fault_plane_ ||
      gauge_manager_->config().watchdog_period > SimTime::zero()) {
    return;
  }
  // A windowed gauge stops reporting once it has held its value for a
  // window past its last sample. Demanded ticks a read period apart cannot
  // straddle a reading and that silence only while a read period plus a
  // report period fits in the window; a substituted deployer's gauges are
  // unknown.
  if (parts_.gauges ||
      reads.period + gauge_manager_->config().report_period >
          config_.gauge_window) {
    return;
  }
  gauge_manager_->set_read_schedule(reads, config_.bus_base_delay);
}

std::string Framework::solo_name() const {
  return testbed_.scenario.empty() ? std::string("solo") : testbed_.scenario;
}

durability::ShardSnapshot Framework::capture_shard_snapshot() const {
  durability::ShardSnapshot shard;
  shard.shard = durability_shard_;
  shard.name = solo_name();
  shard.model = durability::encode_system(*system_);
  shard.model_digest = durability::fnv1a(shard.model.data(),
                                         shard.model.size());
  for (const monitor::GaugeManager::ChannelState& ch :
       gauge_manager_->snapshot_state()) {
    durability::GaugeState g;
    g.id = ch.id;
    g.live = ch.live;
    g.suspect = ch.suspect;
    g.last_report = ch.last_report;
    shard.gauges.push_back(std::move(g));
  }
  if (fault_plane_) shard.rng_streams = fault_plane_->rng_states();
  shard.repairs_committed = engine_->stats().committed;
  return shard;
}

void Framework::warm_remos() {
  if (!config_.remos_prequery) return;
  sim::GridApp& app = *testbed_.app;
  std::vector<std::pair<sim::NodeId, sim::NodeId>> pairs;
  for (sim::ClientIdx c = 0; c < static_cast<sim::ClientIdx>(app.client_count());
       ++c) {
    for (sim::GroupIdx g = 0;
         g < static_cast<sim::GroupIdx>(app.group_count()); ++g) {
      pairs.emplace_back(app.group_node(g), app.client_node(c));
    }
    for (sim::ServerIdx s = 0;
         s < static_cast<sim::ServerIdx>(app.server_count()); ++s) {
      pairs.emplace_back(app.server_node(s), app.client_node(c));
    }
  }
  remos_->prequery(pairs);
  ARC_INFO << "remos: pre-queried " << pairs.size() << " pairs";
}

void Framework::deploy_gauges() {
  if (parts_.gauges) {
    parts_.gauges(sim_, testbed_, *gauge_manager_, config_);
    return;
  }
  sim::GridApp& app = *testbed_.app;
  for (sim::ClientIdx c = 0; c < static_cast<sim::ClientIdx>(app.client_count());
       ++c) {
    const std::string client = app.client_name(c);
    gauge_manager_->deploy(monitor::make_latency_gauge(
        sim_, client, app.client_node(c), config_.gauge_window));
    const std::string role_element =
        "Conn_" + client + "." + config_.conventions.client_role;
    gauge_manager_->deploy(monitor::make_bandwidth_gauge(
        sim_, client, role_element, app.client_node(c)));
  }
  for (sim::GroupIdx g = 0; g < static_cast<sim::GroupIdx>(app.group_count());
       ++g) {
    const std::string group = app.group_name(g);
    gauge_manager_->deploy(monitor::make_load_gauge(
        sim_, group, app.queue_node(), config_.gauge_window));
    gauge_manager_->deploy(monitor::make_utilization_gauge(
        sim_, group, app.queue_node(), /*alpha=*/0.1));
  }
}

void Framework::start() {
  if (started_) throw Error("Framework::start called twice");
  started_ = true;
  warm_remos();
  // Probes publish into the lossy bus when faults are on — probe-report
  // loss/delay/duplication is the first monitoring seam.
  events::EventBus& probe_pub = lossy_probe_bus_
                                    ? static_cast<events::EventBus&>(
                                          *lossy_probe_bus_)
                                    : *probe_bus_;
  probes_ = monitor::make_standard_probes(sim_, *testbed_.app, *remos_,
                                         probe_pub, config_.probe_period);
  probes_.start_all();
  deploy_gauges();
  if (!fleet_attached_) {
    // The solo loop: one shard, each report applied on delivery, every
    // period a full detect() + dispatch() — the paper's periodic check.
    FleetManagerConfig loop_cfg;
    loop_cfg.coalesce_window = SimTime::zero();
    loop_cfg.sweep_threads = 1;
    loop_cfg.health_tracking = false;
    loop_ = std::make_unique<FleetManager>(sim_, config_.check_period,
                                           config_.first_check, loop_cfg);
    loop_->add_shard(solo_name(), *manager_, *gauge_bus_,
                     testbed_.manager_node);
    loop_->start();
  }
  // Fleet seam: one crash draw per tenant. The crash takes every gauge
  // channel dark for its duration; the watchdog and (in fleet mode) the
  // health state machine do the rest.
  if (fault_plane_) {
    SimTime crash_at, crash_duration;
    if (fault_plane_->draw_tenant_crash(crash_at, crash_duration)) {
      sim_.schedule_in(crash_at, [this, crash_duration] {
        gauge_manager_->crash(crash_duration);
      });
    }
  }
  // Solo durability: snapshot-0 anchors replay (arcreplay rebuilds any LSN
  // from it + the journal), then periodic captures bound recovery work. A
  // fleet arms one task covering all shards instead (core/fleet.cpp).
  if (durability_plane_) {
    durability_plane_->take_snapshot(sim_.now(), {capture_shard_snapshot()});
    const SimTime period = config_.durability.snapshot_period;
    if (period > SimTime::zero()) {
      snapshot_task_ = std::make_unique<sim::PeriodicTask>(
          sim_, sim_.now() + period, period, [this] {
            durability_plane_->take_snapshot(sim_.now(),
                                             {capture_shard_snapshot()});
            return true;
          });
    }
  }

  ARC_INFO << "framework: started (" << gauge_manager_->gauge_count()
           << " gauges deploying)";

  // Semantic verification over the assembled deployment: script effect/flow
  // rules plus the cross-artifact checks (constraints vs gauge feeds,
  // operator costs). Gauges are registered synchronously by deploy_gauges(),
  // so the view is complete even though their creation cost is still
  // in flight.
  if (config_.verify != VerifyMode::Off) {
    std::size_t errors = 0;
    for (const acme::analysis::AnalysisIssue& issue : verify_framework(*this)) {
      if (issue.severity == acme::Severity::Error) ++errors;
      ARC_WARN << "arcverify: " << issue.to_string();
    }
    if (config_.verify == VerifyMode::Error && errors > 0) {
      throw Error("arcverify: deployment failed verification (" +
                  std::to_string(errors) + " error(s); see log)");
    }
  }
}

}  // namespace arcadia::core
