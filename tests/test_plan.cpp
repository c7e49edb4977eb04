// The staged repair pipeline: AdaptationPlan lifting, optimizer passes,
// overlapped execution, mid-plan failure compensation, and preemption.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "acme/script.hpp"
#include "core/experiment.hpp"
#include "durability/sink.hpp"
#include "events/bus.hpp"
#include "model/types.hpp"
#include "monitor/gauge.hpp"
#include "monitor/gauge_manager.hpp"
#include "monitor/topics.hpp"
#include "repair/constraint.hpp"
#include "repair/engine.hpp"
#include "repair/plan.hpp"
#include "repair/plan_executor.hpp"
#include "repair/plan_optimizer.hpp"
#include "repair/scripts.hpp"
#include "repair/style_ops.hpp"
#include "zero_delay_bus.hpp"

namespace arcadia::repair {
namespace {

namespace cs = model::cs;

model::System make_system(int groups = 2) {
  model::System sys("GridStorage");
  for (int g = 1; g <= groups; ++g) {
    auto& grp = sys.add_component("ServerGrp" + std::to_string(g),
                                  cs::kServerGroupT);
    grp.set_property("load", model::PropertyValue(0.0));
    grp.set_property("replicationCount", model::PropertyValue(g == 1 ? 3 : 2));
    grp.set_property("utilization", model::PropertyValue(0.5));
    grp.add_port("provide", cs::kProvidePortT);
    grp.representation();
  }
  for (int c = 1; c <= 2; ++c) {
    auto& client = sys.add_component("User" + std::to_string(c), cs::kClientT);
    client.set_property("averageLatency", model::PropertyValue(0.5));
    client.set_property("maxLatency", model::PropertyValue(2.0));
    client.set_property("boundTo", model::PropertyValue("ServerGrp1"));
    client.add_port("request", cs::kRequestPortT);
    auto& conn =
        sys.add_connector("Conn_User" + std::to_string(c), cs::kConnT);
    conn.add_role("clientSide", cs::kClientRoleT)
        .set_property("bandwidth", model::PropertyValue(1e7));
    conn.add_role("serverSide", cs::kServerRoleT);
    sys.attach({"User" + std::to_string(c), "request",
                "Conn_User" + std::to_string(c), "clientSide"});
    sys.attach({"ServerGrp1", "provide", "Conn_User" + std::to_string(c),
                "serverSide"});
  }
  return sys;
}

// ---- lifting ----

TEST(PlanLiftTest, MoveLiftsToOneStep) {
  model::System sys = make_system();
  model::Transaction txn(sys);
  perform_move(txn, sys, "User1", "ServerGrp2", {});
  std::vector<model::OpRecord> records = txn.records();
  txn.commit();

  AdaptationPlan plan = build_plan(records, {}, nullptr, nullptr);
  ASSERT_EQ(plan.steps.size(), 1u);
  const PlanStep& step = plan.steps[0];
  EXPECT_EQ(step.kind, PlanStep::Kind::RuntimeOps);
  EXPECT_EQ(step.op_class, PlanStep::OpClass::Move);
  EXPECT_EQ(step.subject, "User1");
  EXPECT_EQ(step.records.size(), 3u);  // detach + attach + boundTo
  EXPECT_TRUE(step.deps.empty());
  EXPECT_EQ(plan.journal.size(), 3u);
}

TEST(PlanLiftTest, IndependentRecruitsRunConcurrently) {
  model::System sys = make_system();
  model::Transaction txn(sys);
  perform_add_server(txn, sys, "ServerGrp1", "SrvA", {});
  perform_add_server(txn, sys, "ServerGrp2", "SrvB", {});
  std::vector<model::OpRecord> records = txn.records();
  txn.commit();

  AdaptationPlan plan = build_plan(records, {}, nullptr, nullptr);
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.steps[0].op_class, PlanStep::OpClass::Recruit);
  EXPECT_EQ(plan.steps[0].subject, "SrvA");
  // The replicationCount bookkeeping rides with its recruit.
  EXPECT_EQ(plan.steps[0].records.size(), 2u);
  EXPECT_EQ(plan.steps[1].subject, "SrvB");
  EXPECT_TRUE(plan.steps[1].deps.empty());  // disjoint groups: no ordering
}

TEST(PlanLiftTest, SameGroupStepsAreOrdered) {
  model::System sys = make_system();
  model::Transaction txn(sys);
  perform_add_server(txn, sys, "ServerGrp2", "SrvA", {});
  perform_move(txn, sys, "User1", "ServerGrp2", {});  // into the grown group
  std::vector<model::OpRecord> records = txn.records();
  txn.commit();

  AdaptationPlan plan = build_plan(records, {}, nullptr, nullptr);
  ASSERT_EQ(plan.steps.size(), 2u);
  ASSERT_EQ(plan.steps[1].deps.size(), 1u);
  EXPECT_EQ(plan.steps[1].deps[0], 0u);  // move waits for the recruit
}

class PricingTranslator : public Translator {
 public:
  SimTime apply(const std::vector<model::OpRecord>&) override {
    return SimTime::zero();
  }
  SimTime estimate(const std::vector<model::OpRecord>& records) const override {
    SimTime cost = SimTime::zero();
    for (const model::OpRecord& op : records) {
      if (op_class_of(op, {}) != OpClass::Replay) cost += SimTime::seconds(1);
    }
    return cost;
  }
};

TEST(PlanLiftTest, EstimatesAndCriticalPath) {
  model::System sys = make_system();
  model::Transaction txn(sys);
  perform_add_server(txn, sys, "ServerGrp1", "SrvA", {});
  perform_add_server(txn, sys, "ServerGrp2", "SrvB", {});
  std::vector<model::OpRecord> records = txn.records();
  txn.commit();

  PricingTranslator pricing;
  AdaptationPlan plan = build_plan(records, {}, &pricing, nullptr);
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_EQ(plan.steps[0].estimated_cost, SimTime::seconds(1));
  // Independent steps: serial sums, the critical path does not.
  EXPECT_EQ(plan.estimated_serial_cost(), SimTime::seconds(2));
  EXPECT_EQ(plan.estimated_critical_path(), SimTime::seconds(1));
}

// ---- optimizer ----

TEST(PlanOptimizerTest, MergesRedundantMoves) {
  model::System sys = make_system(/*groups=*/3);
  model::Transaction txn(sys);
  perform_move(txn, sys, "User1", "ServerGrp2", {});
  perform_move(txn, sys, "User1", "ServerGrp3", {});  // supersedes the first
  std::vector<model::OpRecord> records = txn.records();
  txn.commit();

  AdaptationPlan plan = build_plan(records, {}, nullptr, nullptr);
  ASSERT_EQ(plan.steps.size(), 2u);
  const PlanOptimizerStats stats = optimize_plan(plan);
  EXPECT_EQ(stats.moves_merged, 1u);
  ASSERT_EQ(plan.steps.size(), 1u);
  EXPECT_EQ(plan.steps[0].op_class, PlanStep::OpClass::Move);
  // The surviving step is the final binding.
  bool saw_final = false;
  for (const model::OpRecord& op : plan.steps[0].records) {
    if (op.kind == model::OpKind::SetProperty) {
      saw_final = true;
      EXPECT_EQ(op.value.as_string(), "ServerGrp3");
    }
  }
  EXPECT_TRUE(saw_final);
  // The journal keeps everything: compensation must undo both hops.
  EXPECT_EQ(plan.journal.size(), 6u);
}

TEST(PlanOptimizerTest, MergedMoveCompensatesToThePrePlanBinding) {
  // The intermediate hop is never enacted, so the surviving move's inverse
  // must send the runtime straight back to the original group — not to the
  // hop the journal lists as its model-side predecessor.
  model::System sys = make_system(/*groups=*/3);
  model::Transaction txn(sys);
  perform_move(txn, sys, "User1", "ServerGrp2", {});
  perform_move(txn, sys, "User1", "ServerGrp3", {});
  std::vector<model::OpRecord> records = txn.records();
  txn.commit();

  AdaptationPlan plan = build_plan(records, {}, nullptr, nullptr);
  optimize_plan(plan);
  ASSERT_EQ(plan.steps.size(), 1u);
  const model::OpRecord* bound = nullptr;
  for (const model::OpRecord& op : plan.steps[0].records) {
    if (op.kind == model::OpKind::SetProperty) bound = &op;
  }
  ASSERT_NE(bound, nullptr);
  std::optional<model::OpRecord> inv = bound->inverse();
  ASSERT_TRUE(inv.has_value());
  EXPECT_EQ(inv->value.as_string(), "ServerGrp1");  // not ServerGrp2
}

/// A gauge with a fixed reading, for plan tests that only care about
/// element addressing and lifecycle costs.
class FixedGauge : public monitor::Gauge {
 public:
  FixedGauge(sim::Simulator& sim, const std::string& id,
             const std::string& element)
      : Gauge(sim, monitor::GaugeSpec{util::Symbol::intern(id),
                                      util::Symbol::intern(element),
                                      util::Symbol::intern("averageLatency"),
                                      sim::kNoNode}) {}
  events::Filter probe_filter() const override {
    return events::Filter::topic(monitor::topics::kProbeLatencySym);
  }
  void consume(const events::Notification&) override {}
  std::optional<double> read() override { return 1.0; }
  void reset() override {}
};

struct GaugeRig {
  sim::Simulator sim;
  test::ZeroDelayBus probe_bus{sim};
  test::ZeroDelayBus gauge_bus{sim};
  monitor::GaugeManager gauges;

  explicit GaugeRig(monitor::GaugeManagerConfig cfg = {})
      : gauges(sim, probe_bus, gauge_bus, cfg) {}

  void deploy(const std::string& id, const std::string& element) {
    gauges.deploy(std::make_unique<FixedGauge>(sim, id, element));
  }
  void go_live() { sim.run_until(sim.now() + SimTime::seconds(13)); }
};

TEST(PlanOptimizerTest, BatchesGaugeStepsOnTheSameFrontier) {
  model::System sys = make_system();
  GaugeRig rig;
  rig.deploy("lat:User1", "User1");
  rig.deploy("lat:User2", "User2");
  rig.go_live();

  // One runtime step touching both gauge-carrying clients.
  model::Transaction txn(sys);
  txn.set_property({}, model::ElementKind::Component, "User1", "",
                   "averageLatency", model::PropertyValue(1.0));
  txn.set_property({}, model::ElementKind::Component, "User2", "",
                   "averageLatency", model::PropertyValue(1.0));
  std::vector<model::OpRecord> records = txn.records();
  txn.commit();

  AdaptationPlan plan = build_plan(records, {}, nullptr, &rig.gauges);
  // 1 replay step + 2 per-element gauge steps.
  ASSERT_EQ(plan.steps.size(), 3u);
  EXPECT_EQ(plan.gauge_step_count(), 2u);
  const PlanOptimizerStats stats = optimize_plan(plan);
  EXPECT_EQ(stats.gauges_batched, 1u);
  ASSERT_EQ(plan.steps.size(), 2u);
  ASSERT_EQ(plan.steps[1].kind, PlanStep::Kind::GaugeRedeploy);
  EXPECT_EQ(plan.steps[1].elements.size(), 2u);
}

TEST(PlanLiftTest, SequentialPlanShape) {
  // The paper's sequential repair as a plan: one runtime step replaying the
  // whole journal, then a chain of per-element gauge steps.
  model::System sys = make_system();
  GaugeRig rig;
  rig.deploy("lat:User1", "User1");
  rig.deploy("load:ServerGrp2", "ServerGrp2");
  rig.deploy("bw:Conn_User1", "Conn_User1.clientSide");
  rig.go_live();

  model::Transaction txn(sys);
  perform_add_server(txn, sys, "ServerGrp2", "SrvA", {});
  perform_move(txn, sys, "User1", "ServerGrp2", {});
  std::vector<model::OpRecord> records = txn.records();
  txn.commit();

  PricingTranslator pricing;
  AdaptationPlan plan = build_sequential_plan(records, &pricing, &rig.gauges);
  ASSERT_EQ(plan.runtime_step_count(), 1u);
  const PlanStep& replay = plan.steps[0];
  EXPECT_EQ(replay.kind, PlanStep::Kind::RuntimeOps);
  EXPECT_EQ(replay.label, "replay");
  EXPECT_EQ(replay.records.size(), records.size());
  EXPECT_EQ(plan.journal.size(), records.size());
  EXPECT_TRUE(replay.deps.empty());
  EXPECT_EQ(replay.estimated_cost, SimTime::seconds(2));  // recruit + move

  const std::vector<std::string> affected =
      affected_gauge_elements(records, &rig.gauges);
  ASSERT_EQ(affected.size(), 3u);
  ASSERT_EQ(plan.steps.size(), 1u + affected.size());
  for (std::size_t i = 1; i < plan.steps.size(); ++i) {
    const PlanStep& step = plan.steps[i];
    EXPECT_EQ(step.kind, PlanStep::Kind::GaugeRedeploy);
    EXPECT_EQ(step.elements, std::vector<std::string>{affected[i - 1]});
    EXPECT_EQ(step.deps, std::vector<std::size_t>{i - 1});
  }
  // A chain: nothing overlaps, so the critical path is the serial sum.
  EXPECT_GT(plan.estimated_serial_cost(), SimTime::seconds(2));
  EXPECT_EQ(plan.estimated_critical_path(), plan.estimated_serial_cost());
}

// ---- executor ----

class CountingTranslator : public Translator {
 public:
  SimTime cost = SimTime::seconds(1);
  std::vector<std::vector<model::OpRecord>> applies;
  SimTime apply(const std::vector<model::OpRecord>& records) override {
    applies.push_back(records);
    return cost;
  }
};

TEST(PlanExecutorTest, IndependentStepsOverlap) {
  model::System sys = make_system();
  model::Transaction txn(sys);
  perform_add_server(txn, sys, "ServerGrp1", "SrvA", {});
  perform_add_server(txn, sys, "ServerGrp2", "SrvB", {});
  std::vector<model::OpRecord> records = txn.records();
  txn.commit();

  sim::Simulator sim;
  CountingTranslator translator;
  AdaptationPlan plan = build_plan(records, {}, &translator, nullptr);
  ASSERT_EQ(plan.steps.size(), 2u);

  PlanExecutor exec(sim, &translator, nullptr);
  bool done = false;
  SimTime done_at;
  PlanExecutor::Callbacks cb;
  cb.on_done = [&] {
    done = true;
    done_at = sim.now();
  };
  exec.run(&plan, std::move(cb));
  sim.run_until(SimTime::seconds(10));
  ASSERT_TRUE(done);
  // Two 1 s steps with no mutual dependency: wall-clock 1 s, not 2 s.
  EXPECT_EQ(done_at, SimTime::seconds(1));
  EXPECT_EQ(translator.applies.size(), 2u);
  EXPECT_EQ(exec.runtime_cost(), SimTime::seconds(2));
}

TEST(PlanExecutorTest, BatchedGaugeRedeployCostsTheSlowestElement) {
  model::System sys = make_system();
  GaugeRig rig;  // cold redeploy: 3 s destroy + 12 s create per gauge
  rig.deploy("lat:User1", "User1");
  rig.deploy("lat:User2", "User2");
  rig.go_live();
  const SimTime t0 = rig.sim.now();

  model::Transaction txn(sys);
  txn.set_property({}, model::ElementKind::Component, "User1", "",
                   "averageLatency", model::PropertyValue(1.0));
  txn.set_property({}, model::ElementKind::Component, "User2", "",
                   "averageLatency", model::PropertyValue(1.0));
  std::vector<model::OpRecord> records = txn.records();
  txn.commit();

  AdaptationPlan plan = build_plan(records, {}, nullptr, &rig.gauges);
  optimize_plan(plan);

  PlanExecutor exec(rig.sim, nullptr, &rig.gauges);
  bool done = false;
  SimTime done_at;
  PlanExecutor::Callbacks cb;
  cb.on_done = [&] {
    done = true;
    done_at = rig.sim.now();
  };
  exec.run(&plan, std::move(cb));
  rig.sim.run_until(rig.sim.now() + SimTime::seconds(120));
  ASSERT_TRUE(done);
  // Two elements, one gauge each: concurrent chains finish together at
  // 15 s — the sequential chain would have taken 30 s.
  EXPECT_EQ((done_at - t0), SimTime::seconds(15));
}

// ---- the engine pipeline end to end ----

/// Fixed runtime answers: the spare server is always SrvNew, the best
/// group always ServerGrp2, and queries cost nothing.
class FixedQueries : public RuntimeQueries {
 public:
  std::optional<std::string> find_good_sgrp(const std::string&,
                                            Bandwidth) override {
    return "ServerGrp2";
  }
  std::optional<std::string> find_spare_server(const std::string&,
                                               Bandwidth) override {
    return "SrvNew";
  }
  std::optional<std::string> find_less_loaded_sgrp(const std::string&,
                                                   const std::string&,
                                                   Bandwidth, double) override {
    return std::nullopt;
  }
  std::optional<std::string> find_removable_server(
      const std::string&) override {
    return std::nullopt;
  }
  SimTime drain_query_cost() override { return SimTime::zero(); }
};

/// A fixLatency producing two dependent runtime steps: recruit a server
/// (SrvNew) into the best group (ServerGrp2), then move the violating
/// client onto it.
const char* kTwoStepScript = R"script(
invariant r : averageLatency <= maxLatency !-> fixLatency(r);

strategy fixLatency(badClient : ClientT) = {
  if (growAndMove(badClient)) {
    commit repair;
  } else {
    abort NoApplicableTactic;
  }
}

tactic growAndMove(client : ClientT) : boolean = {
  let target : ServerGroupT = findGoodSGrp(client, minBandwidth);
  target.addServer();
  client.move(target);
  return true;
}
)script";

void bind_thresholds(ConstraintChecker& checker) {
  checker.bind_global("maxServerLoad", acme::EvalValue(6.0));
  checker.bind_global("minBandwidth", acme::EvalValue(1e4));
  checker.bind_global("minUtilization", acme::EvalValue(0.2));
  checker.bind_global("minReplicas", acme::EvalValue(2.0));
}

struct EngineRig {
  sim::Simulator sim;
  model::System sys = make_system();
  acme::Script script;
  FixedQueries queries;
  CountingTranslator translator;
  std::unique_ptr<RepairEngine> engine;
  ConstraintChecker checker{sys};

  explicit EngineRig(RepairEngineConfig cfg = {},
                     const char* source = extended_script())
      : script(acme::parse_script(source)) {
    engine = std::make_unique<RepairEngine>(sim, sys, script, &queries,
                                            &translator, nullptr, cfg);
    bind_thresholds(checker);
    checker.instantiate(script);
  }
};

TEST(PlanEngineTest, TranslatorFailureMidPlanCompensates) {
  // The recruit step applies; the dependent move step throws. The engine
  // must compensate the enacted recruit at the runtime layer and revert the
  // whole journal in the model, leaving both convergent at the pre-repair
  // state.
  class FailSecond : public Translator {
   public:
    std::vector<std::vector<model::OpRecord>> applies;
    SimTime apply(const std::vector<model::OpRecord>& records) override {
      if (applies.size() == 1) {
        applies.emplace_back();  // record the attempt
        throw RuntimeOpError("queue vanished");
      }
      applies.push_back(records);
      return SimTime::millis(500);
    }
  };

  sim::Simulator sim;
  model::System sys = make_system();
  acme::Script script = acme::parse_script(kTwoStepScript);
  FixedQueries queries;
  FailSecond translator;
  RepairEngine engine(sim, sys, script, &queries, &translator, nullptr, {});
  ConstraintChecker checker(sys);
  bind_thresholds(checker);
  checker.instantiate(script);

  sys.component("User1").set_property("averageLatency",
                                      model::PropertyValue(9.0));
  ASSERT_TRUE(engine.handle_violations(checker.check()));
  // Model mutated at commit: recruit + move are in.
  EXPECT_TRUE(sys.component("ServerGrp2")
                  .representation_const()
                  .has_component("SrvNew"));
  sim.run_until(SimTime::seconds(30));

  ASSERT_EQ(engine.records().size(), 1u);
  const RepairRecord& rec = engine.records()[0];
  EXPECT_TRUE(rec.aborted);
  EXPECT_FALSE(rec.committed);
  EXPECT_TRUE(rec.finished);
  EXPECT_NE(rec.abort_reason.find("RuntimeFailure"), std::string::npos);
  EXPECT_FALSE(engine.busy());
  EXPECT_EQ(engine.stats().committed, 0u);
  EXPECT_TRUE(engine.repair_windows().empty());

  // Model reverted to the pre-repair state...
  EXPECT_FALSE(sys.component("ServerGrp2")
                   .representation_const()
                   .has_component("SrvNew"));
  EXPECT_TRUE(sys.attached("ServerGrp1", "provide", "Conn_User1",
                           "serverSide"));
  EXPECT_EQ(sys.component("User1").property("boundTo").as_string(),
            "ServerGrp1");
  EXPECT_EQ(
      sys.component("ServerGrp2").property("replicationCount").as_int(), 2);
  // ...and the runtime saw the compensating release of the enacted recruit.
  ASSERT_EQ(translator.applies.size(), 3u);  // recruit, failed move, comp
  const std::vector<model::OpRecord>& comp = translator.applies.back();
  bool saw_release = false;
  for (const model::OpRecord& op : comp) {
    if (op.kind == model::OpKind::RemoveComponent && op.element == "SrvNew") {
      saw_release = true;
    }
  }
  EXPECT_TRUE(saw_release);
}

TEST(PlanEngineTest, SequentialRuntimeFailureCompensates) {
  // The sequential plan shape runs through the same executor, so a runtime
  // failure compensates like any plan: the record flips to aborted, the
  // model reverts, and no repair window is recorded.
  class FailFirst : public Translator {
   public:
    std::vector<std::vector<model::OpRecord>> applies;
    SimTime apply(const std::vector<model::OpRecord>& records) override {
      const bool first = applies.empty();
      applies.push_back(records);
      if (first) throw RuntimeOpError("queue vanished");
      return SimTime::millis(500);
    }
  };

  sim::Simulator sim;
  model::System sys = make_system();
  acme::Script script = acme::parse_script(kTwoStepScript);
  FixedQueries queries;
  FailFirst translator;
  RepairEngineConfig cfg;
  cfg.use_plan = false;
  RepairEngine engine(sim, sys, script, &queries, &translator, nullptr, cfg);
  ConstraintChecker checker(sys);
  bind_thresholds(checker);
  checker.instantiate(script);

  sys.component("User1").set_property("averageLatency",
                                      model::PropertyValue(9.0));
  ASSERT_TRUE(engine.handle_violations(checker.check()));
  sim.run_until(SimTime::seconds(30));

  ASSERT_EQ(engine.records().size(), 1u);
  const RepairRecord& rec = engine.records()[0];
  EXPECT_TRUE(rec.aborted);
  EXPECT_FALSE(rec.committed);
  EXPECT_TRUE(rec.finished);
  EXPECT_NE(rec.abort_reason.find("RuntimeFailure"), std::string::npos);
  EXPECT_FALSE(engine.busy());
  EXPECT_EQ(engine.stats().committed, 0u);
  EXPECT_EQ(engine.stats().aborted, 1u);
  EXPECT_TRUE(engine.repair_windows().empty());

  EXPECT_FALSE(sys.component("ServerGrp2")
                   .representation_const()
                   .has_component("SrvNew"));
  EXPECT_TRUE(sys.attached("ServerGrp1", "provide", "Conn_User1",
                           "serverSide"));
  EXPECT_EQ(sys.component("User1").property("boundTo").as_string(),
            "ServerGrp1");
  // The one replay step failed; the runtime then saw its compensation.
  ASSERT_EQ(translator.applies.size(), 2u);
  EXPECT_EQ(translator.applies[0].size(), rec.journal.size());
  bool saw_release = false;
  for (const model::OpRecord& op : translator.applies[1]) {
    if (op.kind == model::OpKind::RemoveComponent && op.element == "SrvNew") {
      saw_release = true;
    }
  }
  EXPECT_TRUE(saw_release);
}

TEST(PlanEngineTest, PreemptFactorBelowOneIsRejected) {
  // With a factor under 1 two violations could preempt each other on every
  // check; the engine refuses the configuration up front.
  sim::Simulator sim;
  model::System sys = make_system();
  acme::Script script = acme::parse_script(extended_script());
  auto make = [&](bool preemption, double factor) {
    RepairEngineConfig cfg;
    cfg.preemption = preemption;
    cfg.preempt_factor = factor;
    RepairEngine engine(sim, sys, script, nullptr, nullptr, nullptr, cfg);
  };
  EXPECT_THROW(make(true, 0.5), Error);
  EXPECT_THROW(make(true, std::nan("")), Error);
  EXPECT_NO_THROW(make(true, 1.0));
  EXPECT_NO_THROW(make(false, 0.5));  // the factor is unused without it
}

/// Records the plan phases the engine journals; ignores everything else.
struct PlanPhaseSink : durability::JournalSink {
  std::vector<std::string> phases;
  void on_ops(std::uint32_t, SimTime, std::uint64_t, bool,
              const std::vector<model::OpRecord>&) override {}
  void on_plan_event(std::uint32_t, SimTime, const std::string& phase,
                     std::uint64_t, std::uint64_t) override {
    phases.push_back(phase);
  }
  void on_gauge_applied(std::uint32_t, SimTime, util::Symbol, util::Symbol,
                        util::Symbol, const events::Value&) override {}
};

TEST(PlanEngineTest, PlanEventsAreJournaled) {
  EngineRig rig;
  PlanPhaseSink sink;
  rig.engine->set_journal_sink(&sink, 0);
  rig.sys.component("User1").set_property("averageLatency",
                                          model::PropertyValue(9.0));
  rig.sys.component("ServerGrp1").set_property("load",
                                               model::PropertyValue(9.0));
  ASSERT_TRUE(rig.engine->handle_violations(rig.checker.check()));
  rig.sim.run_until(SimTime::seconds(30));
  ASSERT_EQ(sink.phases.size(), 2u);
  EXPECT_EQ(sink.phases[0], "plan-started");
  EXPECT_EQ(sink.phases[1], "plan-completed");
}

TEST(PlanEngineTest, StrictlyWorseViolationPreempts) {
  RepairEngineConfig cfg;
  cfg.preemption = true;  // preempt_factor 2.0
  EngineRig rig(cfg, kTwoStepScript);
  rig.translator.cost = SimTime::seconds(2);

  rig.sys.component("User1").set_property("averageLatency",
                                          model::PropertyValue(5.0));
  ASSERT_TRUE(rig.engine->handle_violations(rig.checker.check()));
  EXPECT_TRUE(rig.engine->busy());

  // Mid-plan (decision charge 0.1 s + first 2 s step in flight) a far worse
  // violation lands on the other client.
  rig.sim.run_until(SimTime::seconds(1));
  rig.sys.component("User2").set_property("averageLatency",
                                          model::PropertyValue(30.0));
  ASSERT_TRUE(rig.engine->handle_violations(rig.checker.check()));

  EXPECT_EQ(rig.engine->stats().plans_preempted, 1u);
  ASSERT_EQ(rig.engine->records().size(), 2u);
  const RepairRecord& first = rig.engine->records()[0];
  EXPECT_TRUE(first.preempted);
  EXPECT_TRUE(first.aborted);
  EXPECT_FALSE(first.committed);
  EXPECT_NE(first.abort_reason.find("PreemptedBy"), std::string::npos);
  EXPECT_EQ(rig.engine->records()[1].element, "User2");
  EXPECT_TRUE(rig.engine->busy());  // the challenger's repair took over

  // The preempted repair's model changes were rolled forward-and-back (the
  // replacement repair immediately re-recruited SrvNew for User2, so the
  // revert is visible on User1's wiring, not the group contents).
  EXPECT_TRUE(rig.sys.attached("ServerGrp1", "provide", "Conn_User1",
                               "serverSide"));
  EXPECT_FALSE(rig.sys.attached("ServerGrp2", "provide", "Conn_User1",
                                "serverSide"));
  EXPECT_EQ(rig.sys.component("User1").property("boundTo").as_string(),
            "ServerGrp1");

  rig.sim.run_until(SimTime::seconds(60));
  EXPECT_FALSE(rig.engine->busy());
  EXPECT_TRUE(rig.engine->records()[1].committed);
  EXPECT_EQ(rig.engine->stats().committed, 1u);
  EXPECT_GE(rig.engine->stats().plan_steps_preempted, 1u);
}

TEST(PlanEngineTest, ComparableViolationDoesNotPreempt) {
  RepairEngineConfig cfg;
  cfg.preemption = true;
  EngineRig rig(cfg, kTwoStepScript);
  rig.translator.cost = SimTime::seconds(2);

  rig.sys.component("User1").set_property("averageLatency",
                                          model::PropertyValue(5.0));
  ASSERT_TRUE(rig.engine->handle_violations(rig.checker.check()));
  rig.sim.run_until(SimTime::seconds(1));
  // Worse, but not strictly worse (5.0 * factor 2.0 = 10 > 8).
  rig.sys.component("User2").set_property("averageLatency",
                                          model::PropertyValue(8.0));
  EXPECT_FALSE(rig.engine->handle_violations(rig.checker.check()));
  EXPECT_EQ(rig.engine->stats().plans_preempted, 0u);

  // The active repair's own element never preempts itself, however bad the
  // stale reading looks.
  rig.sys.component("User1").set_property("averageLatency",
                                          model::PropertyValue(100.0));
  EXPECT_FALSE(rig.engine->handle_violations(rig.checker.check()));
  EXPECT_EQ(rig.engine->stats().plans_preempted, 0u);
}

TEST(PlanEngineTest, ChurnMidRepairScenarioPreempts) {
  // End to end on the packed-outage scenario: the second fault lands while
  // the first repair's plan is enacting, and with a factor tuned for
  // same-kind latency violations the follow-on violation preempts it. The
  // model/runtime consistency check must come out clean — every preempted
  // plan was fully compensated.
  core::ExperimentOptions opt = core::options_for("churn-mid-repair");
  opt.adaptation = true;
  opt.framework.repair.preemption = true;
  opt.framework.repair.preempt_factor = 1.2;
  core::ExperimentResult r = core::run_experiment(opt);
  EXPECT_GE(r.repair_stats.plans_preempted, 1u);
  EXPECT_GE(r.repair_stats.committed, 1u);
  EXPECT_TRUE(r.consistency_issues.empty());
  bool saw_preempted = false;
  for (const auto& rec : r.repairs) {
    if (rec.preempted) {
      saw_preempted = true;
      EXPECT_TRUE(rec.aborted);
      EXPECT_FALSE(rec.committed);
    }
  }
  EXPECT_TRUE(saw_preempted);
}

}  // namespace
}  // namespace arcadia::repair
