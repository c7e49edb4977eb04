#include "core/experiment.hpp"

#include <memory>

#include "model/types.hpp"
#include "repair/style_ops.hpp"
#include "sim/scenario_registry.hpp"

namespace arcadia::core {

namespace {

/// Sampling period for queue-length / bandwidth / utilization series.
constexpr SimTime kRecordPeriod = SimTime::seconds(2);
/// Post-hoc windowed-latency parameters (matches the latency gauge).
constexpr SimTime kLatencyWindow = SimTime::seconds(30);
constexpr SimTime kLatencySample = SimTime::seconds(5);

/// Cross-check the architectural model against the runtime after a run —
/// the translator is supposed to have kept them in lockstep.
std::vector<std::string> check_consistency(const Framework& framework,
                                           const sim::GridApp& app) {
  std::vector<std::string> issues;
  const model::System& system =
      const_cast<Framework&>(framework).system();
  const repair::StyleConventions conv = framework.config().conventions;

  for (sim::ClientIdx c = 0;
       c < static_cast<sim::ClientIdx>(app.client_count()); ++c) {
    const std::string client = app.client_name(c);
    const std::string model_group =
        repair::group_of_client(system, client, conv);
    const sim::GroupIdx g = app.client_group(c);
    const std::string runtime_group =
        g == sim::kNoGroup ? "" : app.group_name(g);
    if (model_group != runtime_group) {
      issues.push_back("client " + client + ": model says '" + model_group +
                       "', runtime says '" + runtime_group + "'");
    }
  }
  for (sim::GroupIdx g = 0; g < static_cast<sim::GroupIdx>(app.group_count());
       ++g) {
    const std::string group = app.group_name(g);
    if (!system.has_component(group)) {
      issues.push_back("group " + group + " missing from the model");
      continue;
    }
    const model::Component& comp = system.component(group);
    const std::int64_t model_replicas =
        comp.property_or(model::cs::kPropReplication, model::PropertyValue(0))
            .as_int();
    const std::int64_t runtime_replicas =
        static_cast<std::int64_t>(app.active_servers(g).size());
    if (model_replicas != runtime_replicas) {
      issues.push_back("group " + group + ": model replicationCount " +
                       std::to_string(model_replicas) + ", runtime actives " +
                       std::to_string(runtime_replicas));
    }
  }
  return issues;
}

}  // namespace

double ExperimentResult::client_fraction_above(std::size_t i) const {
  const ClientSeries& c = clients.at(i);
  return c.window_latency.fraction_above(threshold_s, SimTime::zero(), horizon);
}

double ExperimentResult::mean_fraction_above() const {
  if (clients.empty()) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    sum += client_fraction_above(i);
  }
  return sum / static_cast<double>(clients.size());
}

SimTime ExperimentResult::client_first_crossing(std::size_t i) const {
  return clients.at(i).window_latency.first_crossing(threshold_s);
}

double ExperimentResult::max_queue_length() const {
  double best = 0.0;
  for (const GroupSeries& g : groups) {
    best = std::max(best, g.queue_length.max_over(SimTime::zero(), horizon));
  }
  return best;
}

const ClientSeries* ExperimentResult::client(const std::string& name) const {
  for (const ClientSeries& c : clients) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const GroupSeries* ExperimentResult::group(const std::string& name) const {
  for (const GroupSeries& g : groups) {
    if (g.name == name) return &g;
  }
  return nullptr;
}

ExperimentOptions options_for(const std::string& scenario_name) {
  ExperimentOptions options;
  options.scenario_name = scenario_name;
  options.scenario = sim::scenario_defaults(scenario_name);
  return options;
}

ExperimentResult run_experiment(const ExperimentOptions& options) {
  sim::Simulator sim;
  sim::Testbed tb =
      sim::build_scenario(sim, options.scenario_name, options.scenario);
  sim::GridApp& app = *tb.app;

  ExperimentResult result;
  result.adaptive = options.adaptation;
  result.horizon = options.scenario.horizon;
  result.threshold_s = options.scenario.thresholds.max_latency.as_seconds();

  // ---- recorders (installed before the framework so its probes chain) ----
  result.clients.resize(app.client_count());
  for (std::size_t i = 0; i < app.client_count(); ++i) {
    result.clients[i].name = app.client_name(static_cast<sim::ClientIdx>(i));
    result.clients[i].raw_latency.set_name("latency:" + result.clients[i].name);
    result.clients[i].bandwidth_mbps.set_name("bw:" + result.clients[i].name);
  }
  result.groups.resize(app.group_count());
  for (std::size_t i = 0; i < app.group_count(); ++i) {
    result.groups[i].name = app.group_name(static_cast<sim::GroupIdx>(i));
    result.groups[i].queue_length.set_name("queue:" + result.groups[i].name);
    result.groups[i].utilization.set_name("util:" + result.groups[i].name);
  }

  app.on_response = [&result, &sim](const sim::Request& req) {
    result.clients[req.client].raw_latency.append(sim.now(),
                                                  req.latency().as_seconds());
  };
  app.on_server_state = [&result, &sim, &app](sim::ServerIdx s, bool active) {
    result.server_events.push_back(
        ServerEvent{sim.now(), app.server_name(s), active});
  };

  sim::PeriodicTask recorder(
      sim, kRecordPeriod, kRecordPeriod, [&] {
        for (sim::GroupIdx g = 0;
             g < static_cast<sim::GroupIdx>(app.group_count()); ++g) {
          result.groups[g].queue_length.append(
              sim.now(), static_cast<double>(app.queue_length(g)));
          result.groups[g].utilization.append(sim.now(),
                                              app.group_utilization(g));
        }
        for (sim::ClientIdx c = 0;
             c < static_cast<sim::ClientIdx>(app.client_count()); ++c) {
          sim::GroupIdx g = app.client_group(c);
          if (g == sim::kNoGroup) continue;
          // Direct network measurement (works in the control run too,
          // where no Remos service exists).
          Bandwidth bw = tb.net->available_bandwidth(app.group_node(g),
                                                     app.client_node(c));
          result.clients[c].bandwidth_mbps.append(sim.now(), bw.as_mbps());
        }
        return true;
      });

  // ---- optional adaptation framework ----
  std::unique_ptr<Framework> framework;
  if (options.adaptation) {
    FrameworkConfig fw_cfg = options.framework;
    adopt_scenario_fault(fw_cfg, options.scenario);
    framework = std::make_unique<Framework>(sim, tb, fw_cfg);
    framework->start();
  }

  tb.start();
  sim.run_until(options.scenario.horizon);
  recorder.cancel();

  // ---- post-processing ----
  for (ClientSeries& c : result.clients) {
    c.window_latency = c.raw_latency.windowed_mean(
        kLatencyWindow, kLatencySample, SimTime::zero(),
        options.scenario.horizon);
    c.window_latency.set_name("wlatency:" + c.name);
  }
  result.requests_issued = app.total_issued();
  result.responses_completed = app.total_completed();
  result.sim_events = sim.executed();
  if (framework) {
    result.repair_windows = framework->engine().repair_windows();
    result.repairs = framework->engine().records();
    result.repair_stats = framework->engine().stats();
    result.manager_stats = framework->manager().stats();
    result.gauge_stats = framework->gauges().stats();
    result.verdict_holds =
        framework->manager().checker().check_stats().holds;
    if (framework->fault_plane()) {
      // Close disconnect windows still open at the horizon first, or the
      // channels_disconnected gauge would report them as stuck-down forever
      // (the teardown leak this finalize exists to stop).
      framework->fault_plane()->finalize(sim.now());
      result.fault_stats = framework->fault_plane()->stats();
    }
    // Lockstep is only assessable at plan boundaries: while a plan is in
    // flight at the horizon, the committed model legitimately leads the
    // runtime (the executor hasn't finished enacting it).
    if (!framework->engine().busy()) {
      result.consistency_issues = check_consistency(*framework, app);
    }
  }
  return result;
}

PairedResults run_control_and_repair(ExperimentOptions options) {
  PairedResults out;
  options.adaptation = false;
  out.control = run_experiment(options);
  options.adaptation = true;
  out.repair = run_experiment(options);
  return out;
}

}  // namespace arcadia::core
