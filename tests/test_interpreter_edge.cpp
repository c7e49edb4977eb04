// Edge cases of the script interpreter and evaluator: scoping, shadowing,
// inline comprehensions, abort propagation through nesting, and the
// evaluator's behaviour on degenerate models.
#include <gtest/gtest.h>

#include "acme/interpreter.hpp"
#include "acme/script.hpp"
#include "model/types.hpp"
#include "repair/engine.hpp"
#include "repair/style_ops.hpp"
#include "task/task.hpp"

namespace arcadia::acme {
namespace {

namespace cs = model::cs;

model::System two_group_system() {
  model::System sys("S");
  for (int i = 1; i <= 2; ++i) {
    auto& g = sys.add_component("G" + std::to_string(i), cs::kServerGroupT);
    g.set_property("load", model::PropertyValue(i * 4.0));  // 4 and 8
    g.set_property("replicationCount", model::PropertyValue(2));
    g.add_port("provide", cs::kProvidePortT);
    g.representation();
  }
  auto& c = sys.add_component("C", cs::kClientT);
  c.set_property("averageLatency", model::PropertyValue(5.0));
  c.set_property("maxLatency", model::PropertyValue(2.0));
  c.add_port("request", cs::kRequestPortT);
  auto& conn = sys.add_connector("K", cs::kConnT);
  conn.add_role("clientSide", cs::kClientRoleT);
  conn.add_role("serverSide", cs::kServerRoleT);
  sys.attach({"C", "request", "K", "clientSide"});
  sys.attach({"G1", "provide", "K", "serverSide"});
  return sys;
}

struct Rig {
  model::System sys = two_group_system();
  Script script;
  std::unique_ptr<Interpreter> interp;

  explicit Rig(const std::string& source) : script(parse_script(source)) {
    interp = std::make_unique<Interpreter>(sys, script);
    repair::register_client_server_ops(
        *interp, sys, nullptr, repair::StyleConventions{},
        task::PerformanceProfile{}.min_bandwidth,
        repair::RepairEngineConfig{}.load_improvement);
    interp->bind_global("maxServerLoad", EvalValue(6.0));
  }

  StrategyOutcome run(const std::string& strategy) {
    model::Transaction txn(sys);
    EvalValue arg(ElementRef::of_component(sys, sys.component("C")));
    StrategyOutcome out = interp->run_strategy(strategy, {arg}, txn);
    if (txn.is_open()) {
      if (out.committed) {
        txn.commit();
      } else {
        txn.rollback();
      }
    }
    return out;
  }
};

TEST(InterpreterEdgeTest, LetShadowingIsBlockScoped) {
  Rig rig(
      "strategy s(c : ClientT) = {\n"
      "  let x = 1;\n"
      "  if (x == 1) {\n"
      "    let x = 2;\n"
      "    if (x != 2) { abort InnerWrong; }\n"
      "  }\n"
      "  if (x != 1) { abort OuterClobbered; }\n"
      "  commit repair;\n"
      "}");
  StrategyOutcome out = rig.run("s");
  EXPECT_TRUE(out.committed) << out.abort_reason;
}

TEST(InterpreterEdgeTest, ForeachOverInlineSelect) {
  Rig rig(
      "strategy s(c : ClientT) = {\n"
      "  foreach g in select x : ServerGroupT in self.Components | x.load > 6 {\n"
      "    g.addServer();\n"
      "  }\n"
      "  commit repair;\n"
      "}");
  StrategyOutcome out = rig.run("s");
  ASSERT_TRUE(out.committed);
  // Only G2 (load 8) grew.
  EXPECT_EQ(rig.sys.component("G2").property("replicationCount").as_int(), 3);
  EXPECT_EQ(rig.sys.component("G1").property("replicationCount").as_int(), 2);
}

TEST(InterpreterEdgeTest, AbortInsideTacticPropagatesToStrategy) {
  Rig rig(
      "strategy s(c : ClientT) = {\n"
      "  if (t(c)) { commit repair; } else { abort TacticSaidNo; }\n"
      "}\n"
      "tactic t(c : ClientT) : boolean = { abort DeepTrouble; }");
  StrategyOutcome out = rig.run("s");
  EXPECT_TRUE(out.aborted);
  EXPECT_EQ(out.abort_reason, "DeepTrouble");
}

TEST(InterpreterEdgeTest, TacticsSeeEarlierMutationsInSameRepair) {
  // The second tactic reads the replicationCount the first one bumped:
  // reads-after-writes inside one transaction.
  Rig rig(
      "strategy s(c : ClientT) = {\n"
      "  if (grow(c)) {\n"
      "    if (verify(c)) { commit repair; } else { abort NotVisible; }\n"
      "  } else { abort GrowFailed; }\n"
      "}\n"
      "tactic grow(c : ClientT) : boolean = {\n"
      "  let g : ServerGroupT =\n"
      "    select one x : ServerGroupT in self.Components | x.name == \"G1\";\n"
      "  return g.addServer();\n"
      "}\n"
      "tactic verify(c : ClientT) : boolean = {\n"
      "  let g : ServerGroupT =\n"
      "    select one x : ServerGroupT in self.Components | x.name == \"G1\";\n"
      "  return g.replicationCount == 3;\n"
      "}");
  StrategyOutcome out = rig.run("s");
  EXPECT_TRUE(out.committed) << out.abort_reason;
}

TEST(InterpreterEdgeTest, ReturnWithoutCommitAbortsStrategy) {
  Rig rig("strategy s(c : ClientT) = { return true; }");
  StrategyOutcome out = rig.run("s");
  EXPECT_TRUE(out.aborted);
  EXPECT_EQ(out.abort_reason, "ReturnWithoutCommit");
}

TEST(InterpreterEdgeTest, FallingOffStrategyEndAborts) {
  Rig rig("strategy s(c : ClientT) = { let x = 1; }");
  StrategyOutcome out = rig.run("s");
  EXPECT_TRUE(out.aborted);
  EXPECT_EQ(out.abort_reason, "NoCommit");
}

TEST(InterpreterEdgeTest, NestedForeachProducts) {
  // Count pairs (group, group) via nested iteration with a side-effecting
  // operator guard; exercises scope chains three deep.
  Rig rig(
      "strategy s(c : ClientT) = {\n"
      "  foreach a in self.Components {\n"
      "    foreach b in self.Components {\n"
      "      if (a.name == b.name and a.name == \"G1\") {\n"
      "        a.addServer();\n"
      "      }\n"
      "    }\n"
      "  }\n"
      "  commit repair;\n"
      "}");
  StrategyOutcome out = rig.run("s");
  ASSERT_TRUE(out.committed);
  EXPECT_EQ(rig.sys.component("G1").property("replicationCount").as_int(), 3);
}

TEST(InterpreterEdgeTest, StringEscapesAndComparison) {
  Rig rig(
      "strategy s(c : ClientT) = {\n"
      "  if (c.name + \"!\" == \"C!\") { commit repair; } else { abort Nope; }\n"
      "}");
  EXPECT_TRUE(rig.run("s").committed);
}

TEST(InterpreterEdgeTest, EmptyDomainComprehensions) {
  Rig rig(
      "strategy s(c : ClientT) = {\n"
      "  let none : set{ClientT} =\n"
      "    select x : ClientT in self.Components | x.averageLatency > 100;\n"
      "  if (size(none) == 0 and empty(none)) { commit repair; }\n"
      "  else { abort NotEmpty; }\n"
      "}");
  EXPECT_TRUE(rig.run("s").committed);
}

}  // namespace
}  // namespace arcadia::acme
