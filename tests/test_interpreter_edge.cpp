// Edge cases of the script interpreter and evaluator: scoping, shadowing,
// inline comprehensions, abort propagation through nesting, and the
// evaluator's behaviour on degenerate models.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "acme/checker.hpp"
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

  explicit Rig(const std::string& source,
               const repair::StyleConventions& conventions = {})
      : script(parse_script(source)) {
    interp = std::make_unique<Interpreter>(sys, script);
    repair::register_client_server_ops(
        *interp, sys, nullptr, conventions,
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

TEST(InterpreterEdgeTest, BuiltinArityCheckedAtDispatch) {
  Rig rig(
      "strategy s(c : ClientT) = {\n"
      "  if (abs(1, 2) == 1) { commit repair; } else { abort Nope; }\n"
      "}");
  try {
    rig.run("s");
    FAIL() << "abs(1, 2) ran";
  } catch (const ScriptError& e) {
    EXPECT_STREQ(e.what(), "ScriptError: abs() takes one argument");
  }
}

// ---- the style's vocabulary table ----

/// A well-typed call of each vocabulary entry inside
/// `tactic probe(c : ClientT, g : ServerGroupT)` over two_group_system():
/// c is the client C, g the group G2 it is not on. Operators name their
/// receiver; functions leave it empty.
struct SampleCall {
  std::string receiver;
  std::vector<std::string> args;
};
const std::map<std::string, SampleCall>& sample_calls() {
  static const std::map<std::string, SampleCall> calls = {
      {"addServer", {"g", {}}},
      {"removeServer", {"g", {}}},
      {"move", {"c", {"g"}}},
      {"roleOf", {"", {"c"}}},
      {"groupOf", {"", {"c"}}},
      {"findGoodSGrp", {"", {"c", "10000"}}},
      {"findLessLoadedSGrp", {"", {"c", "g"}}},
  };
  return calls;
}

std::string probe_source(const std::string& name, const SampleCall& call,
                         bool extra_arg) {
  std::string args;
  for (const std::string& a : call.args) args += (args.empty() ? "" : ", ") + a;
  if (extra_arg) args += args.empty() ? "1" : ", 1";
  const std::string callee =
      call.receiver.empty() ? name : call.receiver + "." + name;
  return "tactic probe(c : ClientT, g : ServerGroupT) : boolean = {\n"
         "  let r = " + callee + "(" + args + ");\n"
         "  return true;\n"
         "}";
}

/// Runs every operator and query function of the vocabulary once with its
/// declared arity and once with one argument too many, through the checker
/// and the interpreter.
void check_vocabulary_arities(
    const std::vector<std::pair<std::string, std::size_t>>& entries) {
  const model::Style style = model::client_server_style();
  const Vocabulary vocabulary = repair::client_server_vocabulary();
  for (const auto& [name, arity] : entries) {
    SCOPED_TRACE(name);
    auto sample = sample_calls().find(name);
    if (sample == sample_calls().end()) {
      ADD_FAILURE() << "no sample call for " << name;
      continue;
    }
    EXPECT_EQ(sample->second.args.size(), arity);
    for (const bool extra : {false, true}) {
      Rig rig(probe_source(name, sample->second, extra));
      ScriptChecker checker(style, vocabulary);
      const std::vector<CheckIssue> issues = checker.check_script(rig.script);
      model::Transaction txn(rig.sys);
      const std::vector<EvalValue> args = {
          EvalValue(ElementRef::of_component(rig.sys, rig.sys.component("C"))),
          EvalValue(
              ElementRef::of_component(rig.sys, rig.sys.component("G2")))};
      if (!extra) {
        EXPECT_TRUE(issues.empty()) << issues.front().to_string();
        EXPECT_NO_THROW(rig.interp->run_tactic("probe", args, txn));
      } else {
        ASSERT_EQ(issues.size(), 1u);
        EXPECT_NE(issues[0].message.find("takes " + std::to_string(arity) +
                                         " argument(s), got " +
                                         std::to_string(arity + 1)),
                  std::string::npos)
            << issues[0].message;
        try {
          rig.interp->run_tactic("probe", args, txn);
          ADD_FAILURE() << "ran with " << arity + 1 << " argument(s)";
        } catch (const ScriptError& e) {
          EXPECT_NE(std::string(e.what()).find(name + "("), std::string::npos)
              << e.what();
          EXPECT_NE(std::string(e.what()).find(") takes "), std::string::npos)
              << e.what();
        }
      }
      txn.rollback();
    }
  }
}

TEST(StyleVocabularyTest, EveryOperatorChecksItsArity) {
  std::vector<std::pair<std::string, std::size_t>> entries;
  for (const OperatorEffect& op :
       repair::client_server_vocabulary().operators) {
    entries.emplace_back(op.name, op.args);
  }
  EXPECT_EQ(entries.size(), 3u);
  check_vocabulary_arities(entries);
}

TEST(StyleVocabularyTest, EveryQueryFunctionChecksItsArity) {
  std::vector<std::pair<std::string, std::size_t>> entries;
  for (const FunctionSig& fn : repair::client_server_vocabulary().functions) {
    entries.emplace_back(fn.name, fn.args);
  }
  EXPECT_EQ(entries.size(), 4u);
  check_vocabulary_arities(entries);
}

TEST(StyleVocabularyTest, MoveWritesTheBoundToConvention) {
  repair::StyleConventions conv;
  conv.bound_to_prop = "servedBy";
  const Vocabulary vocabulary = repair::client_server_vocabulary(conv);
  const OperatorEffect* move = vocabulary.find_operator("move");
  ASSERT_NE(move, nullptr);
  EXPECT_EQ(move->writes, std::set<std::string>{"servedBy"});
}

TEST(StyleVocabularyTest, ModelOnlyRemoveServerFindsServerMarkedByConvention) {
  // A model-only addServer marks its server with conventions.dynamic_prop;
  // removeServer must look for the same marker.
  repair::StyleConventions conv;
  conv.dynamic_prop = "recruited";
  Rig rig(
      "tactic grow(g : ServerGroupT) : boolean = { return g.addServer(); }\n"
      "tactic shrink(g : ServerGroupT) : boolean = {\n"
      "  return g.removeServer();\n"
      "}",
      conv);
  const model::Component& g2 = rig.sys.component("G2");
  const EvalValue group(ElementRef::of_component(rig.sys, g2));
  model::Transaction txn(rig.sys);
  ASSERT_TRUE(rig.interp->run_tactic("grow", {group}, txn));
  ASSERT_EQ(g2.representation_const().components().size(), 1u);
  EXPECT_TRUE(rig.interp->run_tactic("shrink", {group}, txn));
  txn.commit();
  EXPECT_TRUE(g2.representation_const().components().empty());
  EXPECT_EQ(g2.property("replicationCount").as_int(), 2);
}

}  // namespace
}  // namespace arcadia::acme
