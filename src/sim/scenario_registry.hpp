// The closed scenario catalog: a named (defaults, testbed factory) pair per
// scenario, built once into a constant table sorted by name. Benches,
// examples, and the experiment runner select scenarios by name instead of
// hard-wiring build_testbed. The table lives in scenario_library.cpp.
#pragma once

#include <string>
#include <vector>

#include "sim/scenario.hpp"

namespace arcadia::sim {

/// Builds a testbed for `config` over `sim`. Factories read the sub-config
/// fields they care about and ignore the rest.
using TestbedFactory = Testbed (*)(Simulator& sim, const ScenarioConfig& config);

struct ScenarioSpec {
  std::string name;
  std::string description;
  /// The config the scenario is calibrated for; callers typically start
  /// from this and override individual knobs.
  ScenarioConfig defaults;
  TestbedFactory build = nullptr;
};

/// Every scenario, sorted by name. Built on first use, never written.
const std::vector<ScenarioSpec>& scenario_catalog();
/// The scenario named `name`, or nullptr when the catalog has none.
const ScenarioSpec* find_scenario(const std::string& name);
/// Look up a scenario; throws Error listing the catalog when unknown.
const ScenarioSpec& scenario_spec(const std::string& name);

/// Build a catalog scenario with its calibrated defaults.
Testbed build_scenario(Simulator& sim, const std::string& name);
/// Build a catalog scenario with an explicit config (start from
/// scenario_defaults(name) and override knobs).
Testbed build_scenario(Simulator& sim, const std::string& name,
                       const ScenarioConfig& config);
/// The calibrated defaults of a catalog scenario.
ScenarioConfig scenario_defaults(const std::string& name);

}  // namespace arcadia::sim
