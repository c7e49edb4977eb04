// Whole-deployment semantic verification (core/verify.hpp): the
// cross-artifact rules over a *started* framework, the scenario-config
// validator, the FrameworkConfig::verify startup hook, and the soundness
// oracle — every op journaled by a committed repair must fall inside the
// statically inferred write set of the tactic that produced it, checked
// over end-to-end paper-fig6 and flash-crowd runs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "acme/analysis.hpp"
#include "acme/effects.hpp"
#include "acme/script.hpp"
#include "core/experiment.hpp"
#include "core/framework.hpp"
#include "core/verify.hpp"
#include "repair/scripts.hpp"
#include "repair/style_ops.hpp"
#include "sim/scenario_registry.hpp"

namespace arcadia::core {
namespace {

using acme::analysis::AnalysisIssue;

std::string dump(const std::vector<AnalysisIssue>& issues) {
  std::string out;
  for (const AnalysisIssue& i : issues) out += i.to_string() + "\n";
  return out;
}

bool has_rule(const std::vector<AnalysisIssue>& issues,
              const std::string& rule) {
  for (const AnalysisIssue& i : issues) {
    if (i.rule == rule) return true;
  }
  return false;
}

/// Deploys no gauges at all: every property-reading constraint loses its
/// feed.
FrameworkParts no_gauges() {
  FrameworkParts parts;
  parts.gauges = [](sim::Simulator&, sim::Testbed&, monitor::GaugeManager&,
                    const FrameworkConfig&) {};
  return parts;
}

// ---- deployment view + rules over a started framework --------------------

TEST(VerifyTest, PaperFig6DeploymentVerifiesClean) {
  sim::Simulator sim;
  sim::Testbed tb = sim::build_scenario(sim, "paper-fig6");
  Framework fw(sim, tb, FrameworkConfig{});
  fw.start();

  const acme::analysis::DeploymentView view = make_deployment_view(fw);
  EXPECT_FALSE(view.constraints.empty());
  EXPECT_FALSE(view.gauge_feeds.empty());
  EXPECT_FALSE(view.operators_used.empty());
  // Table 1 operators all carry a positive environment cost.
  for (const char* op : {"addServer", "move", "removeServer"}) {
    auto it = view.operator_costs_s.find(op);
    ASSERT_NE(it, view.operator_costs_s.end()) << op;
    EXPECT_GT(it->second, 0.0) << op;
  }

  const auto issues = verify_framework(fw);
  EXPECT_TRUE(issues.empty()) << dump(issues);
}

TEST(VerifyTest, MissingGaugesSurfaceAsUngaugedConstraints) {
  sim::Simulator sim;
  sim::Testbed tb = sim::build_scenario(sim, "paper-fig6");
  // The cross-artifact rule must name the constraints left without a feed.
  Framework fw(sim, tb, FrameworkConfig{}, no_gauges());
  fw.start();
  const auto issues = verify_framework(fw);
  EXPECT_TRUE(has_rule(issues, "ungauged-constraint")) << dump(issues);
}

// ---- the startup hook -----------------------------------------------------

TEST(VerifyTest, VerifyModeErrorFailsStartOnBadDeployment) {
  sim::Simulator sim;
  sim::Testbed tb = sim::build_scenario(sim, "paper-fig6");
  FrameworkConfig cfg;
  cfg.verify = VerifyMode::Error;
  Framework fw(sim, tb, cfg, no_gauges());
  EXPECT_THROW(fw.start(), Error);
}

TEST(VerifyTest, VerifyModeWarnToleratesBadDeployment) {
  sim::Simulator sim;
  sim::Testbed tb = sim::build_scenario(sim, "paper-fig6");
  EXPECT_NO_THROW({
    Framework fw(sim, tb, FrameworkConfig{}, no_gauges());  // Warn: default
    fw.start();
  });
}

// ---- scenario-config validation -------------------------------------------

TEST(VerifyTest, RegisteredScenarioDefaultsAreValid) {
  for (const sim::ScenarioSpec& spec : sim::scenario_catalog()) {
    const std::string& name = spec.name;
    const auto issues =
        verify_scenario_config(name, sim::scenario_defaults(name));
    EXPECT_TRUE(issues.empty()) << name << ":\n" << dump(issues);
  }
}

TEST(VerifyTest, UnknownScenarioNameIsFlagged) {
  const auto issues =
      verify_scenario_config("no-such-scenario", sim::ScenarioConfig{});
  EXPECT_TRUE(has_rule(issues, "scenario-config")) << dump(issues);
}

TEST(VerifyTest, MalformedScheduleAndFaultConfigFlagged) {
  sim::ScenarioConfig config;
  config.horizon = SimTime::seconds(600);
  config.quiescent_end = SimTime::seconds(50);
  config.stress_start = SimTime::seconds(100);
  config.stress_end = SimTime::seconds(700);  // dangles past the horizon
  config.fault.enabled = true;
  config.fault.monitoring.report_loss = 1.5;  // not a probability
  config.fault.repair.stall_min = SimTime::seconds(40);
  config.fault.repair.stall_max = SimTime::seconds(20);  // inverted window
  const auto issues = verify_scenario_config("", config);
  EXPECT_EQ(issues.size(), 3u) << dump(issues);
  for (const AnalysisIssue& i : issues) {
    EXPECT_EQ(i.rule, "scenario-config");
    EXPECT_EQ(i.severity, acme::Severity::Error);
  }
}

TEST(VerifyTest, StressPhasePastHorizonSentinelIsValid) {
  // The scenario library neutralizes the Figure 7 stress phase by pushing
  // it past the horizon (seconds(1e9)); that must not be flagged.
  sim::ScenarioConfig config;
  config.stress_start = SimTime::seconds(1e9);
  config.stress_end = SimTime::seconds(1e9);
  EXPECT_TRUE(verify_scenario_config("", config).empty());
}

// ---- soundness oracle ------------------------------------------------------
// Dynamic check of the static effect inference: every OpRecord journaled by
// a committed repair must fall inside the inferred write set of the tactic
// whose span covers it.

void expect_journal_sound(const std::vector<repair::RepairRecord>& repairs,
                          const char* label) {
  const acme::Script script = acme::parse_script(repair::extended_script());
  const acme::ScriptEffects effects =
      acme::infer_effects(script, repair::client_server_vocabulary());
  std::size_t committed = 0;
  std::size_t checked_ops = 0;
  for (const repair::RepairRecord& rec : repairs) {
    if (!rec.committed) continue;
    ++committed;
    for (const acme::TacticSpan& span : rec.tactic_spans) {
      const acme::TacticEffects* fx = effects.find(span.name);
      ASSERT_NE(fx, nullptr) << label << ": unknown tactic " << span.name;
      ASSERT_LE(span.ops_begin, span.ops_end) << label;
      ASSERT_LE(span.ops_end, rec.journal.size()) << label;
      for (std::size_t i = span.ops_begin; i < span.ops_end; ++i) {
        EXPECT_TRUE(acme::analysis::op_within_effects(rec.journal[i], *fx))
            << label << ": journaled op #" << i << " on '"
            << rec.journal[i].element << "' escapes the inferred effect of "
            << "tactic '" << span.name << "'";
        ++checked_ops;
      }
    }
  }
  // The oracle must not pass vacuously: repairs fired and produced ops.
  EXPECT_GT(committed, 0u) << label;
  EXPECT_GT(checked_ops, 0u) << label;
}

TEST(VerifyTest, SoundnessOracleHoldsOnPaperFig6Run) {
  ExperimentOptions opt;  // paper-fig6, schedule compressed for test budget
  opt.scenario.horizon = SimTime::seconds(600);
  opt.scenario.quiescent_end = SimTime::seconds(60);
  opt.scenario.stress_start = SimTime::seconds(300);
  opt.scenario.stress_end = SimTime::seconds(420);
  const ExperimentResult r = run_experiment(opt);
  expect_journal_sound(r.repairs, "paper-fig6");
}

TEST(VerifyTest, SoundnessOracleHoldsOnFlashCrowdRun) {
  ExperimentOptions opt = options_for("flash-crowd");
  opt.scenario.horizon = SimTime::seconds(600);  // spike at 300 s + recovery
  const ExperimentResult r = run_experiment(opt);
  expect_journal_sound(r.repairs, "flash-crowd");
}

}  // namespace
}  // namespace arcadia::core
