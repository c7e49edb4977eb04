#include "core/verify.hpp"

#include <set>

#include "acme/effects.hpp"
#include "acme/flow.hpp"
#include "core/framework.hpp"
#include "repair/style_ops.hpp"
#include "runtime/translator.hpp"
#include "sim/scenario_registry.hpp"

namespace arcadia::core {

namespace {

using acme::analysis::AnalysisIssue;

void config_issue(std::vector<AnalysisIssue>& out, std::string message) {
  out.push_back(AnalysisIssue{"scenario-config", acme::Severity::Error, 0, 0,
                              std::move(message)});
}

void check_probability(std::vector<AnalysisIssue>& out, double p,
                       const std::string& what) {
  if (p < 0.0 || p > 1.0) {
    config_issue(out, what + " = " + std::to_string(p) +
                          " is not a probability (want [0, 1])");
  }
}

void check_window(std::vector<AnalysisIssue>& out, SimTime lo, SimTime hi,
                  const std::string& what) {
  if (hi < lo) {
    config_issue(out, what + " window is inverted (" +
                          std::to_string(lo.as_seconds()) + "s .. " +
                          std::to_string(hi.as_seconds()) + "s)");
  }
}

}  // namespace

acme::analysis::DeploymentView make_deployment_view(Framework& fw) {
  acme::analysis::DeploymentView view;
  const acme::Vocabulary table =
      repair::client_server_vocabulary(fw.config().conventions);

  for (const repair::Constraint& c : fw.manager().checker().constraints()) {
    acme::analysis::ConstraintView cv;
    cv.id = c.id;
    cv.element = c.element;
    cv.reads = acme::free_properties(*c.condition, table);
    cv.line = c.condition->line;
    cv.column = c.condition->column;
    view.constraints.push_back(std::move(cv));
  }

  for (const monitor::GaugeSpec& spec : fw.gauges().specs()) {
    view.gauge_feeds.push_back(acme::analysis::GaugeFeed{
        spec.element.str(), spec.property.str()});
  }

  const rt::EnvironmentCosts& costs = fw.environment().costs();
  for (const acme::OperatorEffect& op : table.operators) {
    view.operator_costs_s[op.name] =
        rt::op_class_cost(repair::operator_class(op.name), costs).as_seconds();
  }

  // Operator call sites reachable from an installed invariant's handler
  // chain (tactic summaries are transitively closed, so arm tactics carry
  // their callees' sites too).
  const acme::Script& script = fw.script();
  const acme::ScriptEffects effects = acme::infer_effects(script, table);
  std::set<std::string> seen;  // "op@line:col" dedup across invariants
  for (const acme::InvariantDecl& inv : script.invariants) {
    const acme::StrategyDecl* strategy = script.find_strategy(inv.handler);
    if (!strategy) continue;
    for (const acme::FirstSuccessArm& arm :
         acme::first_success_arms(*strategy)) {
      const acme::TacticEffects* fx = effects.find(arm.tactic);
      if (!fx) continue;
      for (const acme::OperatorUse& use : fx->operators) {
        const std::string key = use.op + "@" + std::to_string(use.line) +
                                ":" + std::to_string(use.column);
        if (seen.insert(key).second) view.operators_used.push_back(use);
      }
    }
  }

  return view;
}

std::vector<AnalysisIssue> verify_framework(Framework& fw) {
  const acme::Vocabulary table =
      repair::client_server_vocabulary(fw.config().conventions);
  std::vector<AnalysisIssue> issues =
      acme::analysis::analyze_script(fw.script(), table);
  std::vector<AnalysisIssue> deployment =
      acme::analysis::verify_deployment(make_deployment_view(fw));
  issues.insert(issues.end(), deployment.begin(), deployment.end());
  return issues;
}

std::vector<AnalysisIssue> verify_scenario_config(
    const std::string& name, const sim::ScenarioConfig& config) {
  std::vector<AnalysisIssue> out;

  if (!name.empty() && !sim::find_scenario(name)) {
    config_issue(out, "scenario '" + name + "' is not registered");
  }

  // -- schedule breakpoints (Figure 7 shape: quiescent -> stress -> final)
  if (config.horizon <= SimTime::zero()) {
    config_issue(out, "horizon must be positive");
  }
  if (config.stress_start < config.quiescent_end) {
    config_issue(out, "stress_start precedes quiescent_end");
  }
  if (config.stress_end < config.stress_start) {
    config_issue(out, "stress_end precedes stress_start");
  }
  // A stress phase pushed entirely past the horizon is the library's
  // "no Figure-7 stress phase" sentinel (seconds(1e9)) and is valid; one
  // that starts inside the run must also end inside it.
  if (config.stress_start < config.horizon &&
      config.horizon < config.stress_end) {
    config_issue(out, "stress_end exceeds the horizon");
  }

  // -- topology counts
  if (config.grid.groups <= 0 || config.grid.servers_per_group <= 0 ||
      config.grid.clients <= 0 || config.grid.clients_per_pod <= 0 ||
      config.grid.spares < 0) {
    config_issue(out, "grid counts must be positive (spares >= 0)");
  }
  if (config.fleet.tenants <= 0) {
    config_issue(out, "fleet.tenants must be positive");
  } else if (config.fleet.tenant_index < 0 ||
             config.fleet.tenant_index >= config.fleet.tenants) {
    config_issue(out, "fleet.tenant_index " +
                          std::to_string(config.fleet.tenant_index) +
                          " out of range for " +
                          std::to_string(config.fleet.tenants) + " tenant(s)");
  }

  // -- flash-crowd window
  check_window(out, config.flash.start, config.flash.end, "flash-crowd");
  if (config.flash.rate_multiplier <= 0.0) {
    config_issue(out, "flash.rate_multiplier must be positive");
  }

  // -- fault profile
  const fault::FaultProfile& fault = config.fault;
  if (fault.enabled) {
    check_probability(out, fault.monitoring.report_loss,
                      "monitoring.report_loss");
    check_probability(out, fault.monitoring.report_dup,
                      "monitoring.report_dup");
    check_probability(out, fault.monitoring.report_delay,
                      "monitoring.report_delay");
    check_probability(out, fault.monitoring.channel_disconnect,
                      "monitoring.channel_disconnect");
    check_probability(out, fault.repair.op_transient, "repair.op_transient");
    check_probability(out, fault.repair.op_permanent, "repair.op_permanent");
    check_probability(out, fault.repair.op_stall, "repair.op_stall");
    check_probability(out, fault.fleet.tenant_crash, "fleet.tenant_crash");
    check_window(out, fault.monitoring.delay_min, fault.monitoring.delay_max,
                 "monitoring.delay");
    check_window(out, fault.monitoring.disconnect_min,
                 fault.monitoring.disconnect_max, "monitoring.disconnect");
    check_window(out, fault.repair.permanent_from, fault.repair.permanent_until,
                 "repair.permanent");
    check_window(out, fault.repair.stall_min, fault.repair.stall_max,
                 "repair.stall");
    check_window(out, fault.fleet.crash_min, fault.fleet.crash_max,
                 "fleet.crash");
  }

  return out;
}

}  // namespace arcadia::core
