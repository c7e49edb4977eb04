// FrameworkBuilder: the default assembly must be indistinguishable from
// the legacy Framework constructor (the simulation is deterministic, so
// counts and model properties must match exactly), and every part
// substitution must actually take effect.
#include <gtest/gtest.h>

#include "core/framework_builder.hpp"
#include "runtime/translator.hpp"
#include "sim/scenario_registry.hpp"

namespace arcadia::core {
namespace {

struct RunOutcome {
  std::uint64_t completed = 0;
  std::size_t gauges = 0;
  std::uint64_t reports_applied = 0;
  std::size_t repairs = 0;
  double user1_latency = 0.0;
};

RunOutcome collect(sim::Simulator& sim, sim::Testbed& tb, Framework& fw) {
  tb.start();
  sim.run_until(SimTime::seconds(240));
  RunOutcome out;
  out.completed = tb.app->total_completed();
  out.gauges = fw.gauges().gauge_count();
  out.reports_applied = fw.detection_loop()->shard_stats(0).reports_applied;
  out.repairs = fw.engine().records().size();
  out.user1_latency =
      fw.system().component("User1").property("averageLatency").as_double();
  return out;
}

TEST(FrameworkBuilderTest, DefaultBuildEqualsLegacyWiring) {
  RunOutcome legacy;
  {
    sim::Simulator sim;
    sim::Testbed tb = sim::build_scenario(sim, "paper-fig6");
    Framework fw(sim, tb, FrameworkConfig{});
    fw.start();
    legacy = collect(sim, tb, fw);
  }
  RunOutcome built;
  {
    sim::Simulator sim;
    sim::Testbed tb = sim::build_scenario(sim, "paper-fig6");
    auto fw = FrameworkBuilder(sim, tb).build_started();
    built = collect(sim, tb, *fw);
  }
  EXPECT_EQ(built.completed, legacy.completed);
  EXPECT_EQ(built.gauges, legacy.gauges);
  EXPECT_EQ(built.reports_applied, legacy.reports_applied);
  EXPECT_EQ(built.repairs, legacy.repairs);
  EXPECT_DOUBLE_EQ(built.user1_latency, legacy.user1_latency);
  EXPECT_GT(built.completed, 0u);
  EXPECT_GT(built.reports_applied, 0u);
}

TEST(FrameworkBuilderTest, GaugeDeployerSubstitutionTakesEffect) {
  sim::Simulator sim;
  sim::Testbed tb = sim::build_scenario(sim, "paper-fig6");
  auto fw = FrameworkBuilder(sim, tb)
                .with_gauge_deployer([](sim::Simulator& s, sim::Testbed& t,
                                        monitor::GaugeManager& gauges,
                                        const FrameworkConfig& cfg) {
                  // Latency gauges only — no bandwidth/load/utilization.
                  sim::GridApp& app = *t.app;
                  for (sim::ClientIdx c = 0;
                       c < static_cast<sim::ClientIdx>(app.client_count());
                       ++c) {
                    gauges.deploy(monitor::make_latency_gauge(
                        s, app.client_name(c), app.client_node(c),
                        cfg.gauge_window));
                  }
                })
                .build_started();
  EXPECT_EQ(fw->gauges().gauge_count(), 6u);  // default wiring deploys 16
}

TEST(FrameworkBuilderTest, TranslatorSubstitutionTakesEffect) {
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
  auto fw = FrameworkBuilder(sim, tb)
                .with_translator([&](rt::SimEnvironmentManager& env,
                                     const FrameworkConfig&) {
                  auto t = std::make_unique<CountingTranslator>(env);
                  translator = t.get();
                  return t;
                })
                .build();
  ASSERT_NE(translator, nullptr);
  EXPECT_EQ(&fw->translator(), translator);
}

TEST(FrameworkBuilderTest, ProbeFactorySubstitutionTakesEffect) {
  bool factory_ran = false;
  sim::Simulator sim;
  sim::Testbed tb = sim::build_scenario(sim, "paper-fig6");
  auto fw = FrameworkBuilder(sim, tb)
                .with_probe_set([&](sim::Simulator& s, sim::Testbed& t,
                                    remos::RemosService& remos,
                                    events::EventBus& bus,
                                    const FrameworkConfig& cfg) {
                  factory_ran = true;
                  return monitor::make_standard_probes(s, *t.app, remos, bus,
                                                       cfg.probe_period);
                })
                .build();
  EXPECT_FALSE(factory_ran);  // probes are created at start()
  fw->start();
  EXPECT_TRUE(factory_ran);
}

TEST(FrameworkBuilderTest, ScriptAndPolicySelection) {
  sim::Simulator sim;
  sim::Testbed tb = sim::build_scenario(sim, "paper-fig6");
  auto fw = FrameworkBuilder(sim, tb)
                .with_policy("worst-first")
                .with_script(
                    "invariant r : averageLatency <= maxLatency !-> "
                    "fixLatency(r);\n"
                    "strategy fixLatency(c : ClientT) = { abort Nope; }\n")
                .build();
  EXPECT_EQ(fw->config().policy_name, "worst-first");
  EXPECT_EQ(fw->script().strategies.size(), 1u);
}

TEST(FrameworkBuilderTest, UnknownPolicyThrowsAtConfigurationTime) {
  sim::Simulator sim;
  sim::Testbed tb = sim::build_scenario(sim, "paper-fig6");
  FrameworkBuilder builder(sim, tb);
  EXPECT_THROW(builder.with_policy("no-such-policy"), Error);
}

}  // namespace
}  // namespace arcadia::core
