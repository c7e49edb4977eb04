// Fault convergence: the failure-aware adaptation loop under a sweep of
// monitoring/repair fault intensities on the lossy-grid scenario. Two
// claims per intensity:
//
//   1. Convergence — despite dropped/delayed/duplicated reports, gauge
//      channel disconnects, and transiently failing runtime operators, the
//      loop ends the run with the model and runtime in lockstep (zero
//      consistency issues) and repairs still committing.
//   2. Replayability — the same (workload seed, fault seed) pair produces
//      a bit-identical run: identical event counts, identical injection
//      counters, identical repair sequence. Fault grids are debuggable
//      only if a crashing cell can be replayed exactly. A different fault
//      seed must show up in the fingerprint, or the replay check proves
//      nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/experiment.hpp"

namespace arcadia {
namespace {

// Covers the grid scenario's stress window (600-900 s): repairs must fire
// for the repair-seam faults to have anything to bite.
constexpr double kHorizonS = 900.0;
constexpr std::uint64_t kFaultSeed = 0xFA117C0DEULL;

struct Cell {
  std::uint64_t reports_dropped = 0;
  std::uint64_t repairs_committed = 0;
  std::size_t consistency_issues = 0;
  /// Event and response counts, injection counters and the repair
  /// sequence, folded into one comparable string.
  std::string fingerprint;
};

Cell run_cell(double intensity, std::uint64_t fault_seed) {
  core::ExperimentOptions opt = core::options_for("lossy-grid");
  opt.scenario.horizon = SimTime::seconds(kHorizonS);
  opt.scenario.fault.seed = fault_seed;
  // Scale every monitoring/repair knob with the intensity; intensity 0.10
  // reproduces the registered lossy-grid profile.
  opt.scenario.fault.enabled = true;
  opt.scenario.fault.monitoring.report_loss = intensity;
  opt.scenario.fault.monitoring.report_dup = intensity / 5.0;
  opt.scenario.fault.monitoring.report_delay = intensity / 2.0;
  opt.scenario.fault.monitoring.channel_disconnect = intensity / 50.0;
  opt.scenario.fault.repair.op_transient = intensity;

  const core::ExperimentResult r = core::run_experiment(opt);
  Cell c;
  c.reports_dropped = r.fault_stats.reports_dropped;
  c.repairs_committed = r.repair_stats.committed;
  c.consistency_issues = r.consistency_issues.size();
  c.fingerprint = std::to_string(r.sim_events) + "|" +
                  std::to_string(r.responses_completed) + "|" +
                  std::to_string(r.fault_stats.reports_dropped) + "|" +
                  std::to_string(r.fault_stats.ops_transient) + "|" +
                  std::to_string(r.repair_stats.ops_retried);
  for (const repair::RepairRecord& rec : r.repairs) {
    c.fingerprint += "|" + rec.strategy + ":" + rec.element + "@" +
                     std::to_string(rec.started.as_seconds());
  }
  return c;
}

class FaultConvergenceTest : public ::testing::TestWithParam<double> {};

TEST_P(FaultConvergenceTest, ConvergesAndReplaysBitIdentically) {
  const double intensity = GetParam();
  const Cell run = run_cell(intensity, kFaultSeed);
  const Cell replay = run_cell(intensity, kFaultSeed);

  EXPECT_EQ(run.consistency_issues, 0u);
  EXPECT_GT(run.repairs_committed, 0u);
  EXPECT_EQ(run.fingerprint, replay.fingerprint);
  if (intensity == 0.0) {
    // The baseline cell proves the harness: zero intensity injects nothing.
    EXPECT_EQ(run.reports_dropped, 0u);
  } else {
    EXPECT_GT(run.reports_dropped, 0u);
    EXPECT_NE(run.fingerprint, run_cell(intensity, kFaultSeed + 1).fingerprint);
  }
}

INSTANTIATE_TEST_SUITE_P(Intensities, FaultConvergenceTest,
                         ::testing::Values(0.0, 0.05, 0.10, 0.20));

}  // namespace
}  // namespace arcadia
