#include "sim/scenario_registry.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace arcadia::sim {

const ScenarioSpec* find_scenario(const std::string& name) {
  const std::vector<ScenarioSpec>& catalog = scenario_catalog();
  auto it = std::find_if(catalog.begin(), catalog.end(),
                         [&](const ScenarioSpec& spec) {
                           return spec.name == name;
                         });
  return it != catalog.end() ? &*it : nullptr;
}

const ScenarioSpec& scenario_spec(const std::string& name) {
  if (const ScenarioSpec* spec = find_scenario(name)) return *spec;
  std::string names;
  for (const ScenarioSpec& spec : scenario_catalog()) names += " " + spec.name;
  throw Error("ScenarioRegistry: unknown scenario '" + name +
              "' (catalog:" + names + ")");
}

Testbed build_scenario(Simulator& sim, const std::string& name) {
  return build_scenario(sim, name, scenario_spec(name).defaults);
}

Testbed build_scenario(Simulator& sim, const std::string& name,
                       const ScenarioConfig& config) {
  const ScenarioSpec& spec = scenario_spec(name);
  // Pre-size the event pool from the config before any event is scheduled:
  // steady-state runs then never grow the slot pool or the heap.
  sim.reserve(estimate_event_reserve(config));
  Testbed tb = spec.build(sim, config);
  tb.scenario = name;
  return tb;
}

ScenarioConfig scenario_defaults(const std::string& name) {
  return scenario_spec(name).defaults;
}

}  // namespace arcadia::sim
