// The scenario catalog: it carries the built-in library as a sorted
// constant table, look-ups fail loudly, and — the load-bearing property —
// every scenario builds, runs under the adaptation framework, and keeps the
// model<->runtime correspondence clean.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/experiment.hpp"
#include "sim/scenario_registry.hpp"

namespace arcadia::sim {
namespace {

TEST(ScenarioRegistryTest, CatalogHasTheBuiltinLibrary) {
  const std::vector<ScenarioSpec>& catalog = scenario_catalog();
  EXPECT_EQ(catalog.size(), 10u);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const ScenarioSpec& spec = catalog[i];
    EXPECT_FALSE(spec.name.empty()) << i;
    EXPECT_FALSE(spec.description.empty()) << spec.name;
    EXPECT_NE(spec.build, nullptr) << spec.name;
    // Strictly ascending: sorted, and every name unique.
    if (i > 0) {
      EXPECT_LT(catalog[i - 1].name, spec.name);
    }
    EXPECT_EQ(find_scenario(spec.name), &spec);
    EXPECT_EQ(&scenario_spec(spec.name), &spec);
  }
  for (const char* name : {"paper-fig6", "paper-fig6-bidir", "grid-4x16",
                           "flash-crowd", "server-churn"}) {
    EXPECT_NE(find_scenario(name), nullptr) << name;
  }
  EXPECT_EQ(find_scenario("no-such-scenario"), nullptr);
}

TEST(ScenarioRegistryTest, UnknownScenarioThrowsWithCatalog) {
  try {
    scenario_spec("no-such-scenario");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "ScenarioRegistry: unknown scenario 'no-such-scenario' "
              "(catalog: churn-mid-repair flaky-ops flash-crowd fleet-4x16 "
              "fleet-64x256 grid-4x16 lossy-grid paper-fig6 paper-fig6-bidir "
              "server-churn)");
  }
}

TEST(ScenarioRegistryTest, DefaultsAreScenarioSpecific) {
  EXPECT_FALSE(scenario_defaults("paper-fig6").comp_bidirectional);
  EXPECT_TRUE(scenario_defaults("paper-fig6-bidir").comp_bidirectional);
  EXPECT_DOUBLE_EQ(scenario_defaults("server-churn").normal_rate_hz, 1.5);
  EXPECT_DOUBLE_EQ(scenario_defaults("flash-crowd").comp_sg1_phase1_mbps, 0.0);
}

TEST(ScenarioRegistryTest, GridShapeIsParameterized) {
  Simulator sim;
  ScenarioConfig cfg = scenario_defaults("grid-4x16");
  cfg.grid.groups = 2;
  cfg.grid.servers_per_group = 1;
  cfg.grid.clients = 4;
  cfg.grid.spares = 1;
  Testbed tb = build_scenario(sim, "grid-4x16", cfg);
  EXPECT_EQ(tb.app->group_count(), 2u);
  EXPECT_EQ(tb.app->server_count(), 3u);  // 2 active + 1 spare
  EXPECT_EQ(tb.app->client_count(), 4u);
  EXPECT_EQ(tb.groups.size(), 2u);
  EXPECT_EQ(tb.spares.size(), 1u);
  EXPECT_EQ(tb.app->spare_servers().size(), 1u);
}

TEST(ScenarioRegistryTest, FaultDriverChurnsServers) {
  Simulator sim;
  ScenarioConfig cfg = scenario_defaults("server-churn");
  cfg.churn.first_outage = SimTime::seconds(10);
  cfg.churn.period = SimTime::seconds(30);
  cfg.churn.outage = SimTime::seconds(10);
  cfg.churn.outages = 2;
  Testbed tb = build_scenario(sim, "server-churn", cfg);
  ASSERT_TRUE(tb.faults);
  int downs = 0;
  int ups = 0;
  tb.app->on_server_state = [&](ServerIdx, bool active) {
    active ? ++ups : ++downs;
  };
  tb.start();
  // Mid-outage (10..20 s): the victim is down, must NOT look like a
  // recruitable spare, and cannot be activated behind the fault's back.
  sim.run_until(SimTime::seconds(15));
  const ServerIdx victim = tb.sg1_servers[0];
  EXPECT_FALSE(tb.app->server_active(victim));
  EXPECT_TRUE(tb.app->server_failed(victim));
  std::vector<ServerIdx> spares = tb.app->spare_servers();
  EXPECT_EQ(std::count(spares.begin(), spares.end(), victim), 0);
  EXPECT_THROW(tb.app->activate_server(victim), SimError);
  sim.run_until(SimTime::seconds(90));
  EXPECT_EQ(tb.faults->outages_started(), 2u);
  EXPECT_EQ(tb.faults->outages_ended(), 2u);
  EXPECT_EQ(downs, 2);
  EXPECT_EQ(ups, 2);
  EXPECT_EQ(tb.app->active_servers(tb.sg1).size(), 3u);  // all recovered
}

// The acceptance gate: every catalog scenario builds, runs 60
// sim-seconds under the full adaptation framework, makes progress, and
// ends with the architectural model matching the runtime exactly.
TEST(ScenarioRegistryTest, AllScenariosRunAdaptedAndStayConsistent) {
  for (const ScenarioSpec& spec : scenario_catalog()) {
    const std::string& name = spec.name;
    core::ExperimentOptions options = core::options_for(name);
    options.adaptation = true;
    options.scenario.horizon = SimTime::seconds(60);
    core::ExperimentResult result = core::run_experiment(options);
    EXPECT_GT(result.responses_completed, 0u) << name;
    EXPECT_TRUE(result.consistency_issues.empty())
        << name << ": " << result.consistency_issues.front();
  }
}

}  // namespace
}  // namespace arcadia::sim
