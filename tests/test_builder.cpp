// Framework assembly: every FrameworkParts substitution must actually take
// effect, and the FrameworkConfig's script and policy select what runs (an
// unknown policy fails when the Framework is constructed).
#include <gtest/gtest.h>

#include "core/framework.hpp"
#include "runtime/translator.hpp"
#include "sim/scenario_registry.hpp"

namespace arcadia::core {
namespace {

TEST(FrameworkPartsTest, GaugeDeployerSubstitutionTakesEffect) {
  sim::Simulator sim;
  sim::Testbed tb = sim::build_scenario(sim, "paper-fig6");
  FrameworkParts parts;
  parts.gauges = [](sim::Simulator& s, sim::Testbed& t,
                    monitor::GaugeManager& gauges, const FrameworkConfig& cfg) {
    // Latency gauges only — no bandwidth/load/utilization.
    sim::GridApp& app = *t.app;
    for (sim::ClientIdx c = 0;
         c < static_cast<sim::ClientIdx>(app.client_count()); ++c) {
      gauges.deploy(monitor::make_latency_gauge(
          s, app.client_name(c), app.client_node(c), cfg.gauge_window));
    }
  };
  Framework fw(sim, tb, FrameworkConfig{}, std::move(parts));
  fw.start();
  EXPECT_EQ(fw.gauges().gauge_count(), 6u);  // default wiring deploys 16
}

TEST(FrameworkPartsTest, TranslatorSubstitutionTakesEffect) {
  struct CountingTranslator : repair::Translator {
    explicit CountingTranslator(rt::SimEnvironmentManager& env) : inner(env) {}
    SimTime apply(const std::vector<model::OpRecord>& records) override {
      ++calls;
      return inner.apply(records);
    }
    rt::SimTranslator inner;
    int calls = 0;
  };
  CountingTranslator* translator = nullptr;
  sim::Simulator sim;
  sim::Testbed tb = sim::build_scenario(sim, "paper-fig6");
  FrameworkParts parts;
  parts.translator = [&](rt::SimEnvironmentManager& env,
                         const FrameworkConfig&) {
    auto t = std::make_unique<CountingTranslator>(env);
    translator = t.get();
    return t;
  };
  Framework fw(sim, tb, FrameworkConfig{}, std::move(parts));
  ASSERT_NE(translator, nullptr);
  EXPECT_EQ(&fw.translator(), translator);
}

TEST(FrameworkPartsTest, ScriptAndPolicySelection) {
  sim::Simulator sim;
  sim::Testbed tb = sim::build_scenario(sim, "paper-fig6");
  FrameworkConfig cfg;
  cfg.repair.policy_name = "worst-first";
  cfg.script_source =
      "invariant r : averageLatency <= maxLatency !-> fixLatency(r);\n"
      "strategy fixLatency(c : ClientT) = { abort Nope; }\n";
  Framework fw(sim, tb, cfg);
  EXPECT_EQ(fw.config().repair.policy_name, "worst-first");
  EXPECT_EQ(fw.script().strategies.size(), 1u);
}

TEST(FrameworkPartsTest, UnknownPolicyThrowsAtConfigurationTime) {
  sim::Simulator sim;
  sim::Testbed tb = sim::build_scenario(sim, "paper-fig6");
  FrameworkConfig cfg;
  cfg.repair.policy_name = "no-such-policy";
  EXPECT_THROW(Framework(sim, tb, cfg), Error);
}

}  // namespace
}  // namespace arcadia::core
