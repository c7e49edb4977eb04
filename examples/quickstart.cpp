// Quickstart on the Framework/catalog API: pick a scenario from the
// scenario catalog by name, run it with the adaptation framework, and
// print what happened.
//
//   quickstart                      # shortened paper experiment
//   quickstart --scenario flash-crowd
//   quickstart --list               # the scenario catalog
//   quickstart --policy worst-first # or first-reported (the default)
//   quickstart --loop               # the README's minimal Framework loop
//   quickstart --full --control --verbose
#include <iostream>
#include <string>

#include "core/experiment.hpp"
#include "core/report.hpp"
#include "repair/engine.hpp"
#include "sim/scenario_registry.hpp"
#include "util/log.hpp"

namespace {

using namespace arcadia;

void print_catalog() {
  std::cout << "registered scenarios:\n";
  for (const sim::ScenarioSpec& spec : sim::scenario_catalog()) {
    std::cout << "  " << spec.name << "\n      " << spec.description << "\n";
  }
}

/// The README's minimal loop: catalog scenario + Framework.
int run_minimal_loop() {
  sim::Simulator s;
  sim::Testbed tb = sim::build_scenario(s, "flash-crowd");
  core::FrameworkConfig cfg;
  cfg.repair.policy_name = "worst-first";
  core::Framework fw(s, tb, cfg);
  fw.start();
  tb.start();
  s.run_until(SimTime::seconds(900));
  std::cout << "flash-crowd: " << fw.engine().stats().committed
            << " repairs committed, " << fw.engine().stats().servers_added
            << " servers recruited\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario = "paper-fig6";
  std::string policy = "first-reported";
  bool full = false;
  bool adaptation = true;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--full") full = true;
    if (arg == "--control") adaptation = false;
    if (arg == "--verbose") Logger::instance().set_level(LogLevel::Info);
    if (arg == "--list") return print_catalog(), 0;
    if (arg == "--loop") return run_minimal_loop();
    if (arg == "--scenario" && i + 1 < argc) scenario = argv[++i];
    if (arg == "--policy" && i + 1 < argc) policy = argv[++i];
  }

  core::ExperimentOptions options;
  try {
    options = core::options_for(scenario);
    repair::violation_chooser(policy);
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  options.adaptation = adaptation;
  options.framework.repair.policy_name = policy;
  if (!full && scenario == "paper-fig6") {
    // Quick run: quiescent 60 s, bandwidth trouble until 300 s, done.
    options.scenario.horizon = SimTime::seconds(420);
    options.scenario.quiescent_end = SimTime::seconds(60);
    options.scenario.stress_start = SimTime::seconds(300);
    options.scenario.stress_end = SimTime::seconds(360);
  }

  std::cout << "Running scenario '" << scenario << "' ("
            << (adaptation ? "adaptive" : "control") << ", "
            << options.scenario.horizon.as_seconds() << " s simulated)...\n";
  core::ExperimentResult result = core::run_experiment(options);

  std::cout << "\nsimulated " << result.sim_events << " events; "
            << result.requests_issued << " requests issued, "
            << result.responses_completed << " responses completed\n\n";

  core::print_latency_figure(std::cout, result, SimTime::seconds(30));
  std::cout << "\n";
  core::print_load_figure(std::cout, result, SimTime::seconds(30));
  std::cout << "\n";
  core::print_repairs(std::cout, result);

  std::cout << "\nmean fraction of time above the 2 s bound: "
            << result.mean_fraction_above() << "\n";
  return 0;
}
