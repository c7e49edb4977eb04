// Determinism regression: two runs of the grid-4x16 scenario with identical
// seeds must execute the identical number of events and end in the identical
// final model state. This guards the simulator's slot-pool rewrite (FIFO
// tie-break, cancellation tombstones) and the symbol-keyed model containers
// (name-sorted iteration) against any ordering drift. A golden pin holds one
// paper run to recorded figures, so drift between builds shows too.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "acme/adl.hpp"
#include "core/framework.hpp"
#include "sim/scenario_registry.hpp"

namespace arcadia {
namespace {

struct Fingerprint {
  std::uint64_t events_executed = 0;
  std::uint64_t requests_issued = 0;
  std::uint64_t responses_completed = 0;
  std::size_t repairs = 0;
  std::string final_model;
};

Fingerprint run_grid(std::uint64_t seed) {
  sim::Simulator sim;
  sim::ScenarioConfig config = sim::scenario_defaults("grid-4x16");
  config.seed = seed;
  config.horizon = SimTime::seconds(400);
  sim::Testbed testbed = sim::build_scenario(sim, "grid-4x16", config);

  core::FrameworkConfig fc;
  core::Framework framework(sim, testbed, fc);
  framework.start();
  testbed.start();
  sim.run_until(config.horizon);

  Fingerprint fp;
  fp.events_executed = sim.executed();
  fp.requests_issued = testbed.app->total_issued();
  fp.responses_completed = testbed.app->total_completed();
  fp.repairs = framework.engine().records().size();
  fp.final_model = acme::print_system(framework.system());
  return fp;
}

TEST(DeterminismTest, IdenticalSeedsIdenticalRuns) {
  Fingerprint a = run_grid(42);
  Fingerprint b = run_grid(42);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.requests_issued, b.requests_issued);
  EXPECT_EQ(a.responses_completed, b.responses_completed);
  EXPECT_EQ(a.repairs, b.repairs);
  EXPECT_EQ(a.final_model, b.final_model);
  // The run did real work (guards against a silently dead scenario).
  EXPECT_GT(a.events_executed, 1000u);
  EXPECT_GT(a.responses_completed, 0u);
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  Fingerprint a = run_grid(42);
  Fingerprint b = run_grid(43);
  // Seeds drive arrivals and service times; some observable must differ.
  EXPECT_TRUE(a.events_executed != b.events_executed ||
              a.responses_completed != b.responses_completed ||
              a.final_model != b.final_model);
}

/// Formats a double so that equal strings mean equal bits (%.17g round-trips
/// every finite double).
std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Golden pin: the paper-fig6 adaptive run, seed 1, to 300 s, must reproduce
// these figures exactly. They were recorded before FlowNetwork's allocator
// switched to cached background capacity and active-channel water-filling,
// so they also hold that rewrite to bit-identity. Any kernel, network or
// application change that shifts simulated results trips this test; a change
// that means to shift them must re-record the values and say why.
TEST(DeterminismTest, PaperFig6GoldenPin) {
  sim::Simulator sim;
  sim::ScenarioConfig config = sim::scenario_defaults("paper-fig6");
  config.seed = 1;
  sim::Testbed testbed = sim::build_scenario(sim, "paper-fig6", config);
  core::Framework framework(sim, testbed, core::FrameworkConfig{});
  framework.start();
  testbed.start();
  sim.run_until(SimTime::seconds(300));

  EXPECT_EQ(sim.executed(), 16487u);
  const sim::FlowNetworkStats& net = testbed.net->stats();
  EXPECT_EQ(net.reallocations, 7236u);
  EXPECT_EQ(net.waterfill_rounds, 6047u);
  EXPECT_EQ(net.transfers_completed, 3617u);

  const std::vector<std::string> latency_sums = {
      "78.518263000000019", "84.824836999999988", "1588.3398410000018",
      "770.68344800000023", "82.892119999999935", "90.741863000000052"};
  ASSERT_EQ(testbed.clients.size(), latency_sums.size());
  for (std::size_t i = 0; i < latency_sums.size(); ++i) {
    EXPECT_EQ(exact(testbed.app->client_stats(testbed.clients[i]).latency_sum_s),
              latency_sums[i])
        << "client " << i;
  }
}

}  // namespace
}  // namespace arcadia
