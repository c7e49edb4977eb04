// arcverify driver: effect/flow analysis over the shipped repair scripts
// plus whole-deployment semantic verification over every registered
// scenario — each scenario's config is validated, then a real framework is
// assembled and started over its testbed and the cross-artifact rules run
// (constraints vs gauge feeds, operator costs, operator effects). Findings
// print compiler-style; the exit code is 1 only when an error-severity
// issue fires (warnings keep the gate green). Run by ctest
// (`arcverify_gate`) and the static-analysis CI lane.
//
// Usage: arcverify [--list-rules] [--report FILE]
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
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

namespace {

using arcadia::acme::Severity;
using arcadia::acme::analysis::AnalysisIssue;

struct Diagnostics {
  std::vector<std::string> lines;
  std::size_t errors = 0;
  std::size_t warnings = 0;

  void emit(const std::string& context, const AnalysisIssue& issue) {
    if (issue.severity == Severity::Error) {
      ++errors;
    } else {
      ++warnings;
    }
    std::string line = context + ": " + issue.to_string();
    std::cerr << line << "\n";
    lines.push_back(std::move(line));
  }

  /// Tool-level failure (a scenario that would not even assemble).
  void fail(const std::string& context, const std::string& message) {
    ++errors;
    std::string line = context + ": error: " + message;
    std::cerr << line << "\n";
    lines.push_back(std::move(line));
  }
};

}  // namespace

int main(int argc, char** argv) {
  namespace acme = arcadia::acme;
  namespace core = arcadia::core;
  namespace sim = arcadia::sim;

  std::string report_path;
  {
    std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (args[i] == "--list-rules") {
        for (const std::string& id : acme::analysis::rule_ids()) {
          std::cout << id << "\n";
        }
        return 0;
      }
      if (args[i] == "--report" && i + 1 < args.size()) {
        report_path = args[++i];
        continue;
      }
      std::cerr << "usage: arcverify [--list-rules] [--report FILE]\n";
      return 2;
    }
  }

  Diagnostics diag;
  const acme::Vocabulary table = arcadia::repair::client_server_vocabulary();

  // ---- shipped scripts: effect/flow rules over the source alone ----
  const std::pair<const char*, const char*> scripts[] = {
      {"script:figure5", acme::figure5_script()},
      {"script:extended", arcadia::repair::extended_script()},
  };
  for (const auto& [name, source] : scripts) {
    try {
      const acme::Script script = acme::parse_script(source);
      for (const AnalysisIssue& issue :
           acme::analysis::analyze_script(script, table)) {
        diag.emit(name, issue);
      }
    } catch (const std::exception& e) {
      diag.fail(name, e.what());
    }
  }

  // ---- scenario catalog: config validation + live deployment rules ----
  for (const sim::ScenarioSpec& spec : sim::scenario_catalog()) {
    const std::string& name = spec.name;
    try {
      core::ExperimentOptions opts = core::options_for(name);
      for (const AnalysisIssue& issue :
           core::verify_scenario_config(name, opts.scenario)) {
        diag.emit("scenario:" + name, issue);
      }

      // Assemble and start the framework the experiment runner would, with
      // the in-process hook off so every finding flows through here once.
      sim::Simulator simulator;
      sim::Testbed testbed =
          sim::build_scenario(simulator, name, opts.scenario);
      core::FrameworkConfig config = opts.framework;
      config.verify = core::VerifyMode::Off;
      core::adopt_scenario_fault(config, opts.scenario);
      core::Framework framework(simulator, testbed, config);
      framework.start();
      for (const AnalysisIssue& issue : core::verify_framework(framework)) {
        diag.emit("deployment:" + name, issue);
      }
    } catch (const std::exception& e) {
      diag.fail("deployment:" + name, e.what());
    }
  }

  const std::string summary =
      "arcverify: " + std::to_string(diag.errors) + " error(s), " +
      std::to_string(diag.warnings) + " warning(s) over " +
      std::to_string(std::size(scripts)) + " script(s) and " +
      std::to_string(sim::scenario_catalog().size()) + " scenario(s)";

  if (!report_path.empty()) {
    std::ofstream out(report_path);
    for (const std::string& line : diag.lines) out << line << "\n";
    out << summary << "\n";
  }

  if (diag.errors > 0) {
    std::cerr << summary << "\n";
    return 1;
  }
  std::cout << summary << "\n";
  return 0;
}
