// End-to-end integration: the full adaptation loop on shortened scenarios,
// control-vs-repair comparisons, determinism, and the paper's qualitative
// claims.
#include <gtest/gtest.h>

#include "core/experiment.hpp"

namespace arcadia::core {
namespace {

/// Short scenario: trouble starts at 60 s, stress 300-420 s, ends 600 s.
ExperimentOptions short_options() {
  ExperimentOptions opt;
  opt.scenario.horizon = SimTime::seconds(600);
  opt.scenario.quiescent_end = SimTime::seconds(60);
  opt.scenario.stress_start = SimTime::seconds(300);
  opt.scenario.stress_end = SimTime::seconds(420);
  return opt;
}

TEST(IntegrationTest, ControlRunStarvesC3C4) {
  ExperimentOptions opt = short_options();
  opt.adaptation = false;
  ExperimentResult r = run_experiment(opt);
  EXPECT_FALSE(r.adaptive);
  EXPECT_TRUE(r.repairs.empty());
  // User3/User4 (C3/C4) cross the threshold shortly after 60 s and stay up
  // through the bandwidth phase.
  SimTime c3 = r.client_first_crossing(2);
  SimTime c4 = r.client_first_crossing(3);
  EXPECT_LT(c3.as_seconds(), 120.0);
  EXPECT_LT(c4.as_seconds(), 120.0);
  // The unaffected clients stay healthy until the stress phase.
  EXPECT_GT(r.client_first_crossing(0).as_seconds(), 290.0);
  EXPECT_GT(r.client_first_crossing(4).as_seconds(), 290.0);
}

TEST(IntegrationTest, ControlStressOverloadsQueues) {
  ExperimentOptions opt = short_options();
  opt.adaptation = false;
  ExperimentResult r = run_experiment(opt);
  const GroupSeries* sg1 = r.group("ServerGrp1");
  ASSERT_NE(sg1, nullptr);
  // Queue exceeds the overload limit during stress...
  EXPECT_GT(sg1->queue_length.max_over(SimTime::seconds(300),
                                       SimTime::seconds(420)),
            6.0);
  // ...and was healthy before the competition phase.
  EXPECT_LT(sg1->queue_length.max_over(SimTime::zero(), SimTime::seconds(60)),
            6.0);
}

TEST(IntegrationTest, ControlBandwidthCollapses) {
  ExperimentOptions opt = short_options();
  opt.adaptation = false;
  ExperimentResult r = run_experiment(opt);
  const ClientSeries* c3 = r.client("User3");
  ASSERT_NE(c3, nullptr);
  double before = c3->bandwidth_mbps.mean_over(SimTime::seconds(10),
                                               SimTime::seconds(55));
  double during = c3->bandwidth_mbps.min_over(SimTime::seconds(70),
                                              SimTime::seconds(290));
  EXPECT_GT(before, 5.0);
  EXPECT_LT(during, 0.01);  // below the 10 Kbps repair threshold
}

TEST(IntegrationTest, AdaptationRepairsBandwidthPhase) {
  ExperimentOptions opt = short_options();
  opt.adaptation = true;
  ExperimentResult r = run_experiment(opt);
  EXPECT_TRUE(r.adaptive);
  ASSERT_FALSE(r.repairs.empty());
  // A move repair for User3 or User4 happened during the bandwidth phase.
  bool moved = false;
  for (const auto& rec : r.repairs) {
    if (rec.committed && rec.moves > 0 && rec.started < SimTime::seconds(300)) {
      moved = true;
      EXPECT_TRUE(rec.element == "User3" || rec.element == "User4");
    }
  }
  EXPECT_TRUE(moved);
}

TEST(IntegrationTest, AdaptationBeatsControl) {
  ExperimentOptions opt = short_options();
  PairedResults pair = run_control_and_repair(opt);
  double control = pair.control.mean_fraction_above();
  double repaired = pair.repair.mean_fraction_above();
  EXPECT_GT(control, 0.15);
  EXPECT_LT(repaired, control * 0.7);  // clear qualitative win
}

TEST(IntegrationTest, RepairsTakeAboutThirtySeconds) {
  // This pins the PAPER's repair shape, so it runs the strictly sequential
  // plan shape; the optimized plan intentionally beats these numbers
  // (see PlanPipelineShortensRepairs below and bench_paper's Figure 11 gate).
  ExperimentOptions opt = short_options();
  opt.adaptation = true;
  opt.framework.repair.use_plan = false;
  ExperimentResult r = run_experiment(opt);
  int counted = 0;
  for (const auto& rec : r.repairs) {
    if (!rec.committed || !rec.finished) continue;
    ++counted;
    EXPECT_GT(rec.duration().as_seconds(), 20.0);
    EXPECT_LT(rec.duration().as_seconds(), 45.0);
    // Gauge communication dominates (Section 5.3).
    EXPECT_GT(rec.gauge_cost.as_seconds(), rec.duration().as_seconds() * 0.6);
  }
  EXPECT_GT(counted, 0);
}

TEST(IntegrationTest, PlanPipelineShortensRepairs) {
  // Same experiment, staged-plan enactment (the default): batched gauge
  // re-deployments overlap across elements, so a committed repair's
  // end-to-end time drops well under the sequential baseline's ~30 s.
  ExperimentOptions opt = short_options();
  opt.adaptation = true;
  ExperimentResult r = run_experiment(opt);
  auto mean_repair = [](const ExperimentResult& res) {
    double sum = 0.0;
    int n = 0;
    for (const auto& rec : res.repairs) {
      if (rec.committed && rec.finished) {
        sum += rec.duration().as_seconds();
        ++n;
      }
    }
    return n ? sum / n : 0.0;
  };
  const double plan_mean = mean_repair(r);
  EXPECT_GT(plan_mean, 0.0);

  opt.framework.repair.use_plan = false;
  const double legacy_mean = mean_repair(run_experiment(opt));
  // Move repairs disturb two gauge elements and halve (15 s vs 30 s);
  // single-element repairs keep their per-element command channel, so the
  // mean lands clearly under the baseline without collapsing to half.
  EXPECT_LT(plan_mean, legacy_mean * 0.9);
  EXPECT_TRUE(r.consistency_issues.empty());
}

TEST(IntegrationTest, GaugeCachingShortensRepairs) {
  ExperimentOptions opt = short_options();
  opt.adaptation = true;
  opt.framework.gauge_costs.caching = true;
  ExperimentResult r = run_experiment(opt);
  int counted = 0;
  for (const auto& rec : r.repairs) {
    if (!rec.committed || !rec.finished) continue;
    ++counted;
    EXPECT_LT(rec.duration().as_seconds(), 8.0);
  }
  EXPECT_GT(counted, 0);
}

TEST(IntegrationTest, StressRecruitsSpareServers) {
  ExperimentOptions opt = short_options();
  opt.adaptation = true;
  ExperimentResult r = run_experiment(opt);
  // During the stress phase the framework activates at least one spare.
  bool activated = false;
  for (const auto& ev : r.server_events) {
    if (ev.active && ev.time >= SimTime::seconds(300)) activated = true;
  }
  EXPECT_TRUE(activated);
  EXPECT_GE(r.repair_stats.servers_added, 1u);
}

TEST(IntegrationTest, DeterministicAcrossRuns) {
  ExperimentOptions opt = short_options();
  opt.adaptation = true;
  ExperimentResult a = run_experiment(opt);
  ExperimentResult b = run_experiment(opt);
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.requests_issued, b.requests_issued);
  ASSERT_EQ(a.repairs.size(), b.repairs.size());
  for (std::size_t i = 0; i < a.repairs.size(); ++i) {
    EXPECT_EQ(a.repairs[i].started, b.repairs[i].started);
    EXPECT_EQ(a.repairs[i].strategy, b.repairs[i].strategy);
    EXPECT_EQ(a.repairs[i].committed, b.repairs[i].committed);
  }
}

TEST(IntegrationTest, SeedChangesTrajectoryNotShape) {
  ExperimentOptions opt = short_options();
  opt.adaptation = true;
  ExperimentResult a = run_experiment(opt);
  opt.scenario.seed = 777;
  ExperimentResult b = run_experiment(opt);
  EXPECT_NE(a.requests_issued, b.requests_issued);
  // Shape invariant: both repaired runs keep most clients under the bound.
  EXPECT_LT(a.mean_fraction_above(), 0.35);
  EXPECT_LT(b.mean_fraction_above(), 0.35);
}

TEST(IntegrationTest, ModelStaysStructurallyValid) {
  ExperimentOptions opt = short_options();
  opt.adaptation = true;
  // Run and then rebuild the framework's final model state indirectly:
  // validity is asserted through the absence of exceptions and through the
  // repair records all being well-formed.
  ExperimentResult r = run_experiment(opt);
  for (const auto& rec : r.repairs) {
    EXPECT_FALSE(rec.constraint_id.empty());
    EXPECT_FALSE(rec.element.empty());
    if (rec.committed && rec.finished) {
      EXPECT_GE(rec.completed, rec.started);
      EXPECT_FALSE(rec.ops.empty());
    }
  }
}

TEST(IntegrationTest, MonitoringQosDoesNotBreakLoop) {
  ExperimentOptions opt = short_options();
  opt.adaptation = true;
  opt.framework.monitoring_qos = true;
  ExperimentResult r = run_experiment(opt);
  EXPECT_FALSE(r.repairs.empty());
  EXPECT_LT(r.mean_fraction_above(), 0.35);
}

TEST(IntegrationTest, WorstFirstPolicyRuns) {
  ExperimentOptions opt = short_options();
  opt.adaptation = true;
  opt.framework.repair.policy_name = "worst-first";
  ExperimentResult r = run_experiment(opt);
  EXPECT_FALSE(r.repairs.empty());
  EXPECT_LT(r.mean_fraction_above(), 0.35);
}

}  // namespace
}  // namespace arcadia::core
