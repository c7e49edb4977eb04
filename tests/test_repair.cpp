// Constraint checker and repair engine, using stub runtime collaborators.
#include <gtest/gtest.h>

#include "acme/script.hpp"
#include "model/types.hpp"
#include "repair/constraint.hpp"
#include "repair/engine.hpp"
#include "repair/scripts.hpp"

namespace arcadia::repair {
namespace {

namespace cs = model::cs;

model::System make_system() {
  model::System sys("GridStorage");
  for (int g = 1; g <= 2; ++g) {
    auto& grp = sys.add_component("ServerGrp" + std::to_string(g),
                                  cs::kServerGroupT);
    grp.set_property("load", model::PropertyValue(0.0));
    grp.set_property("replicationCount", model::PropertyValue(g == 1 ? 3 : 2));
    grp.set_property("utilization", model::PropertyValue(0.5));
    grp.add_port("provide", cs::kProvidePortT);
    grp.representation();
  }
  for (int c = 1; c <= 2; ++c) {
    auto& client =
        sys.add_component("User" + std::to_string(c), cs::kClientT);
    client.set_property("averageLatency", model::PropertyValue(0.5));
    client.set_property("maxLatency", model::PropertyValue(2.0));
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

void bind_standard_globals(ConstraintChecker& checker) {
  checker.bind_global("maxServerLoad", acme::EvalValue(6.0));
  checker.bind_global("minBandwidth", acme::EvalValue(1e4));
  checker.bind_global("minUtilization", acme::EvalValue(0.2));
  checker.bind_global("minReplicas", acme::EvalValue(2.0));
}

TEST(FreeNamesTest, CollectsUnqualifiedNames) {
  auto expr = acme::parse_expression("averageLatency <= maxLatency");
  auto names = free_names(*expr);
  EXPECT_EQ(names, (std::vector<std::string>{"averageLatency", "maxLatency"}));
}

TEST(FreeNamesTest, BindersAndCalleesExcluded) {
  auto expr = acme::parse_expression(
      "exists g : ServerGroupT in self.Components | g.load > maxServerLoad");
  auto names = free_names(*expr);
  EXPECT_EQ(names, std::vector<std::string>{"maxServerLoad"});
}

TEST(ConstraintCheckerTest, InstantiatesOverMatchingElements) {
  model::System sys = make_system();
  ConstraintChecker checker(sys);
  bind_standard_globals(checker);
  acme::Script script = acme::parse_script(extended_script());
  std::size_t created = checker.instantiate(script);
  // Latency invariant on 2 clients + utilization invariant on 2 groups.
  EXPECT_EQ(created, 4u);
  EXPECT_TRUE(checker.check().empty());
}

TEST(ConstraintCheckerTest, DetectsLatencyViolation) {
  model::System sys = make_system();
  ConstraintChecker checker(sys);
  bind_standard_globals(checker);
  acme::Script script = acme::parse_script(extended_script());
  checker.instantiate(script);
  sys.component("User2").set_property("averageLatency",
                                      model::PropertyValue(7.5));
  auto violations = checker.check();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].element, "User2");
  EXPECT_DOUBLE_EQ(violations[0].observed, 7.5);
  EXPECT_EQ(violations[0].constraint->handler, "fixLatency");
}

TEST(ConstraintCheckerTest, UtilizationInvariantGuardsMinReplicas) {
  model::System sys = make_system();
  ConstraintChecker checker(sys);
  bind_standard_globals(checker);
  checker.instantiate(acme::parse_script(extended_script()));
  // Idle group at minimum replication: no violation (composite invariant).
  sys.component("ServerGrp2").set_property("utilization",
                                           model::PropertyValue(0.0));
  EXPECT_TRUE(checker.check().empty());
  // Idle group above minimum: violation.
  sys.component("ServerGrp1").set_property("utilization",
                                           model::PropertyValue(0.0));
  auto violations = checker.check();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].element, "ServerGrp1");
  EXPECT_EQ(violations[0].constraint->handler, "trimServers");
}

TEST(ConstraintCheckerTest, ExplicitConstraintAndSatisfied) {
  model::System sys = make_system();
  ConstraintChecker checker(sys);
  checker.add_constraint("c1", "User1", "averageLatency <= 1.0", "noop");
  EXPECT_TRUE(checker.satisfied("c1"));
  sys.component("User1").set_property("averageLatency",
                                      model::PropertyValue(3.0));
  EXPECT_FALSE(checker.satisfied("c1"));
  EXPECT_THROW(checker.satisfied("ghost"), ModelError);
}

TEST(ConstraintCheckerTest, RemovedElementSkipped) {
  model::System sys = make_system();
  ConstraintChecker checker(sys);
  bind_standard_globals(checker);
  checker.instantiate(acme::parse_script(extended_script()));
  sys.component("User1").set_property("averageLatency",
                                      model::PropertyValue(9.0));
  sys.remove_component("User1");
  EXPECT_TRUE(checker.check().empty());  // no crash, no stale violation
}

// ---- engine with stub collaborators ----

class StubQueries : public RuntimeQueries {
 public:
  std::optional<std::string> good_sgrp;
  std::optional<std::string> spare;
  std::optional<std::string> less_loaded;
  std::optional<std::string> removable;
  SimTime per_query_cost = SimTime::millis(10);

  std::optional<std::string> find_good_sgrp(const std::string&,
                                            Bandwidth) override {
    accumulated_ += per_query_cost;
    return good_sgrp;
  }
  std::optional<std::string> find_spare_server(const std::string&,
                                               Bandwidth) override {
    accumulated_ += per_query_cost;
    return spare;
  }
  std::optional<std::string> find_less_loaded_sgrp(const std::string&,
                                                   const std::string&,
                                                   Bandwidth, double) override {
    accumulated_ += per_query_cost;
    return less_loaded;
  }
  std::optional<std::string> find_removable_server(
      const std::string&) override {
    accumulated_ += per_query_cost;
    return removable;
  }
  SimTime drain_query_cost() override {
    SimTime out = accumulated_;
    accumulated_ = SimTime::zero();
    return out;
  }

 private:
  SimTime accumulated_;
};

class StubTranslator : public Translator {
 public:
  std::vector<model::OpRecord> seen;
  SimTime cost = SimTime::millis(500);
  SimTime apply(const std::vector<model::OpRecord>& records) override {
    for (const auto& r : records) seen.push_back(r);
    return cost;
  }
};

struct EngineRig {
  sim::Simulator sim;
  model::System sys = make_system();
  acme::Script script = acme::parse_script(extended_script());
  StubQueries queries;
  StubTranslator translator;
  std::unique_ptr<RepairEngine> engine;
  ConstraintChecker checker{sys};

  explicit EngineRig(RepairEngineConfig cfg = {}) {
    engine = std::make_unique<RepairEngine>(sim, sys, script, &queries,
                                            &translator, nullptr, cfg);
    bind_standard_globals(checker);
    checker.instantiate(script);
  }

  void violate(const std::string& client, double latency) {
    sys.component(client).set_property("averageLatency",
                                       model::PropertyValue(latency));
  }
  bool check_and_handle() {
    return engine->handle_violations(checker.check());
  }
};

TEST(RepairEngineTest, CommitsBandwidthMoveAndTranslates) {
  EngineRig rig;
  rig.violate("User1", 5.0);
  rig.sys.connector("Conn_User1")
      .role("clientSide")
      .set_property("bandwidth", model::PropertyValue(1e3));
  rig.queries.good_sgrp = "ServerGrp2";
  ASSERT_TRUE(rig.check_and_handle());
  EXPECT_TRUE(rig.engine->busy());
  rig.sim.run_until(SimTime::seconds(10));
  EXPECT_FALSE(rig.engine->busy());
  ASSERT_EQ(rig.engine->records().size(), 1u);
  const RepairRecord& rec = rig.engine->records()[0];
  EXPECT_TRUE(rec.committed);
  EXPECT_TRUE(rec.finished);
  EXPECT_EQ(rec.moves, 1);
  EXPECT_EQ(rec.strategy, "fixLatency");
  // The translator saw the boundTo property op.
  bool saw_bound = false;
  for (const auto& op : rig.translator.seen) {
    if (op.kind == model::OpKind::SetProperty && op.property == "boundTo") {
      saw_bound = true;
      EXPECT_EQ(op.value.as_string(), "ServerGrp2");
    }
  }
  EXPECT_TRUE(saw_bound);
  // Model reflects the move.
  EXPECT_TRUE(rig.sys.attached("ServerGrp2", "provide", "Conn_User1",
                               "serverSide"));
}

TEST(RepairEngineTest, AbortRollsBackAndCoolsDown) {
  EngineRig rig;
  rig.violate("User1", 5.0);  // healthy bandwidth, healthy load -> no tactic
  ASSERT_TRUE(rig.check_and_handle());
  ASSERT_EQ(rig.engine->records().size(), 1u);
  EXPECT_TRUE(rig.engine->records()[0].aborted);
  EXPECT_EQ(rig.engine->records()[0].abort_reason, "NoApplicableTactic");
  EXPECT_FALSE(rig.engine->busy());
  EXPECT_TRUE(rig.engine->constraint_cooling(
      rig.engine->records()[0].constraint_id));
  // Cooldown suppresses immediate retries.
  EXPECT_FALSE(rig.check_and_handle());
  rig.sim.run_until(SimTime::seconds(61));
  EXPECT_TRUE(rig.check_and_handle());
}

TEST(RepairEngineTest, DampingOffRetriesImmediately) {
  RepairEngineConfig cfg;
  cfg.damping = false;
  EngineRig rig(cfg);
  rig.violate("User1", 5.0);
  EXPECT_TRUE(rig.check_and_handle());
  EXPECT_TRUE(rig.check_and_handle());  // no cooldown
  EXPECT_EQ(rig.engine->records().size(), 2u);
}

TEST(RepairEngineTest, ServerLoadRepairAddsSpare) {
  EngineRig rig;
  rig.violate("User1", 5.0);
  rig.sys.component("ServerGrp1").set_property("load",
                                               model::PropertyValue(9.0));
  rig.queries.spare = "Server4";
  ASSERT_TRUE(rig.check_and_handle());
  rig.sim.run_until(SimTime::seconds(10));
  const RepairRecord& rec = rig.engine->records()[0];
  EXPECT_TRUE(rec.committed);
  EXPECT_EQ(rec.servers_added, 1);
  EXPECT_TRUE(rig.sys.component("ServerGrp1")
                  .representation_const()
                  .has_component("Server4"));
  EXPECT_EQ(
      rig.sys.component("ServerGrp1").property("replicationCount").as_int(),
      4);
}

TEST(RepairEngineTest, LoadByMoveWhenNoSpares) {
  EngineRig rig;
  rig.violate("User1", 5.0);
  rig.sys.component("ServerGrp1").set_property("load",
                                               model::PropertyValue(9.0));
  rig.queries.spare = std::nullopt;
  rig.queries.less_loaded = "ServerGrp2";
  ASSERT_TRUE(rig.check_and_handle());
  rig.sim.run_until(SimTime::seconds(10));
  const RepairRecord& rec = rig.engine->records()[0];
  EXPECT_TRUE(rec.committed);
  EXPECT_EQ(rec.moves, 1);
  ASSERT_GE(rec.tactics.size(), 3u);
  EXPECT_EQ(rec.tactics[2].first, "fixLoadByMove");
}

TEST(RepairEngineTest, FirstReportedVsWorstFirst) {
  {
    EngineRig rig;
    rig.violate("User1", 3.0);
    rig.violate("User2", 30.0);
    rig.queries.good_sgrp = "ServerGrp2";
    rig.sys.connector("Conn_User1").role("clientSide").set_property(
        "bandwidth", model::PropertyValue(1e3));
    rig.sys.connector("Conn_User2").role("clientSide").set_property(
        "bandwidth", model::PropertyValue(1e3));
    rig.check_and_handle();
    EXPECT_EQ(rig.engine->records()[0].element, "User1");  // first reported
  }
  {
    RepairEngineConfig cfg;
    cfg.policy_name = "worst-first";
    EngineRig rig(cfg);
    rig.violate("User1", 3.0);
    rig.violate("User2", 30.0);
    rig.queries.good_sgrp = "ServerGrp2";
    rig.sys.connector("Conn_User1").role("clientSide").set_property(
        "bandwidth", model::PropertyValue(1e3));
    rig.sys.connector("Conn_User2").role("clientSide").set_property(
        "bandwidth", model::PropertyValue(1e3));
    rig.check_and_handle();
    EXPECT_EQ(rig.engine->records()[0].element, "User2");  // worst latency
  }
}

TEST(RepairEngineTest, BusyEngineDefersNewRepairs) {
  EngineRig rig;
  rig.violate("User1", 5.0);
  rig.violate("User2", 5.0);
  for (const auto& name : {"Conn_User1", "Conn_User2"}) {
    rig.sys.connector(name).role("clientSide").set_property(
        "bandwidth", model::PropertyValue(1e3));
  }
  rig.queries.good_sgrp = "ServerGrp2";
  ASSERT_TRUE(rig.check_and_handle());
  EXPECT_FALSE(rig.check_and_handle());  // busy
  rig.sim.run_until(SimTime::seconds(10));
  EXPECT_TRUE(rig.check_and_handle());  // User2's turn
  rig.sim.run_until(SimTime::seconds(20));
  EXPECT_EQ(rig.engine->stats().committed, 2u);
}

TEST(RepairEngineTest, RepairDurationIncludesCosts) {
  EngineRig rig;
  rig.queries.per_query_cost = SimTime::millis(200);
  rig.translator.cost = SimTime::seconds(1);
  rig.violate("User1", 5.0);
  rig.sys.connector("Conn_User1")
      .role("clientSide")
      .set_property("bandwidth", model::PropertyValue(1e3));
  rig.queries.good_sgrp = "ServerGrp2";
  rig.check_and_handle();
  rig.sim.run_until(SimTime::seconds(30));
  const RepairRecord& rec = rig.engine->records()[0];
  // decision 0.1 + query 0.2 + ops 1.0 (no gauges in this rig).
  EXPECT_EQ(rec.decision_cost, kDecisionCost);
  EXPECT_EQ(kDecisionCost, SimTime::millis(100));
  EXPECT_NEAR(rec.duration().as_seconds(), 1.3, 1e-6);
  EXPECT_EQ(rec.query_cost, SimTime::millis(200));
  EXPECT_EQ(rec.op_cost, SimTime::seconds(1));
}

TEST(RepairEngineTest, SettleTimeSuppressesElement) {
  EngineRig rig;
  rig.violate("User1", 5.0);
  rig.sys.connector("Conn_User1")
      .role("clientSide")
      .set_property("bandwidth", model::PropertyValue(1e3));
  rig.queries.good_sgrp = "ServerGrp2";
  rig.check_and_handle();
  rig.sim.run_until(SimTime::seconds(5));
  EXPECT_TRUE(rig.engine->suppressed("User1"));
  // Still violating (stale gauge), but suppressed.
  EXPECT_FALSE(rig.check_and_handle());
  rig.sim.run_until(SimTime::seconds(40));
  EXPECT_FALSE(rig.engine->suppressed("User1"));
}

TEST(RepairEngineTest, RepairWindowsExposed) {
  EngineRig rig;
  rig.violate("User1", 5.0);
  rig.sys.connector("Conn_User1")
      .role("clientSide")
      .set_property("bandwidth", model::PropertyValue(1e3));
  rig.queries.good_sgrp = "ServerGrp2";
  rig.check_and_handle();
  rig.sim.run_until(SimTime::seconds(10));
  auto windows = rig.engine->repair_windows();
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_LT(windows[0].first, windows[0].second);
}

class ThrowingTranslator : public Translator {
 public:
  SimTime apply(const std::vector<model::OpRecord>&) override {
    throw RuntimeOpError("spare server vanished");
  }
};

TEST(RepairEngineTest, RuntimeFailureAbortsAndCoolsDown) {
  sim::Simulator sim;
  model::System sys = make_system();
  acme::Script script = acme::parse_script(extended_script());
  StubQueries queries;
  queries.spare = "Server4";
  ThrowingTranslator translator;
  RepairEngine engine(sim, sys, script, &queries, &translator, nullptr, {});
  ConstraintChecker checker(sys);
  bind_standard_globals(checker);
  checker.instantiate(script);

  sys.component("User1").set_property("averageLatency",
                                      model::PropertyValue(9.0));
  sys.component("ServerGrp1").set_property("load", model::PropertyValue(9.0));
  ASSERT_TRUE(engine.handle_violations(checker.check()));
  sim.run_until(SimTime::seconds(10));
  ASSERT_EQ(engine.records().size(), 1u);
  const RepairRecord& rec = engine.records()[0];
  EXPECT_TRUE(rec.aborted);
  EXPECT_TRUE(rec.finished);
  EXPECT_NE(rec.abort_reason.find("RuntimeFailure"), std::string::npos);
  EXPECT_FALSE(engine.busy());
  EXPECT_TRUE(engine.constraint_cooling(rec.constraint_id));
  EXPECT_EQ(engine.stats().committed, 0u);
}

TEST(RepairEngineTest, UnknownHandlerAborts) {
  // The constraint names a handler the script does not define. The engine
  // has no other strategy source: the repair aborts without touching the
  // model or the runtime, and the constraint cools down.
  sim::Simulator sim;
  model::System sys = make_system();
  acme::Script script = acme::parse_script(
      "invariant r : averageLatency <= maxLatency !-> fixLatency(r);");
  StubQueries queries;
  queries.spare = "Server4";  // a strategy would have something to recruit
  StubTranslator translator;
  RepairEngine engine(sim, sys, script, &queries, &translator, nullptr, {});
  ConstraintChecker checker(sys);
  bind_standard_globals(checker);
  checker.instantiate(script);

  sys.component("User1").set_property("averageLatency",
                                      model::PropertyValue(9.0));
  sys.component("ServerGrp1").set_property("load", model::PropertyValue(9.0));
  ASSERT_TRUE(engine.handle_violations(checker.check()));
  sim.run_until(SimTime::seconds(10));

  ASSERT_EQ(engine.records().size(), 1u);
  const RepairRecord& rec = engine.records()[0];
  EXPECT_TRUE(rec.aborted);
  EXPECT_FALSE(rec.committed);
  EXPECT_TRUE(rec.finished);
  EXPECT_EQ(rec.abort_reason, "UnknownStrategy:fixLatency");
  EXPECT_TRUE(rec.journal.empty());
  EXPECT_EQ(rec.servers_added, 0);
  EXPECT_FALSE(engine.busy());
  EXPECT_EQ(engine.stats().committed, 0u);
  EXPECT_EQ(engine.stats().aborted, 1u);
  EXPECT_TRUE(translator.seen.empty());
  EXPECT_EQ(sys.component("ServerGrp1").property("replicationCount").as_int(),
            3);
  EXPECT_TRUE(engine.constraint_cooling(rec.constraint_id));
  EXPECT_FALSE(engine.handle_violations(checker.check()));
}

}  // namespace
}  // namespace arcadia::repair
