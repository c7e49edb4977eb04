// Static script/expression checking against the client-server style.
#include <gtest/gtest.h>

#include "acme/checker.hpp"
#include "acme/expr_parser.hpp"
#include "acme/script.hpp"
#include "repair/scripts.hpp"
#include "repair/style_ops.hpp"

namespace arcadia::acme {
namespace {

struct CheckerRig {
  model::Style style = model::client_server_style();
  Vocabulary vocabulary = repair::client_server_vocabulary();
  ScriptChecker checker{style, vocabulary};

  std::vector<CheckIssue> check(const std::string& script_source) {
    Script script = parse_script(script_source);
    return checker.check_script(script);
  }
  bool clean(const std::string& script_source) {
    auto issues = check(script_source);
    EXPECT_TRUE(issues.empty()) << (issues.empty() ? ""
                                                   : issues.front().to_string());
    return issues.empty();
  }
  bool flags(const std::string& script_source, const std::string& needle) {
    for (const CheckIssue& issue : check(script_source)) {
      if (issue.message.find(needle) != std::string::npos) return true;
    }
    return false;
  }
};

TEST(CheckerTest, ShippedScriptsAreClean) {
  CheckerRig rig;
  EXPECT_TRUE(rig.clean(repair::extended_script()));
  EXPECT_TRUE(rig.clean(figure5_script()));
}

TEST(CheckerTest, MisspelledPropertyFlagged) {
  CheckerRig rig;
  EXPECT_TRUE(rig.flags(
      "tactic t(g : ServerGroupT) : boolean = { return g.lod > 6; }",
      "no property 'lod'"));
}

TEST(CheckerTest, UnknownOperatorFlagged) {
  CheckerRig rig;
  EXPECT_TRUE(rig.flags(
      "tactic t(g : ServerGroupT) : boolean = { g.addSrver(); return true; }",
      "unknown style operator 'addSrver'"));
}

TEST(CheckerTest, OperatorTargetTypeChecked) {
  CheckerRig rig;
  EXPECT_TRUE(rig.flags(
      "tactic t(c : ClientT) : boolean = { c.addServer(); return true; }",
      "applies to ServerGroupT"));
}

TEST(CheckerTest, OperatorArityChecked) {
  CheckerRig rig;
  EXPECT_TRUE(rig.flags(
      "tactic t(c : ClientT) : boolean = { c.move(); return true; }",
      "takes 1 argument"));
}

TEST(CheckerTest, UnknownFunctionAndArity) {
  CheckerRig rig;
  EXPECT_TRUE(rig.flags(
      "tactic t(c : ClientT) : boolean = { return findBestGroup(c) != nil; }",
      "unknown function"));
  EXPECT_TRUE(rig.flags(
      "tactic t(c : ClientT) : boolean = { return size() > 0; }",
      "takes 1 argument"));
}

TEST(CheckerTest, UnboundNameFlagged) {
  CheckerRig rig;
  EXPECT_TRUE(rig.flags(
      "tactic t(c : ClientT) : boolean = { return mysteryValue > 1; }",
      "unbound name 'mysteryValue'"));
}

TEST(CheckerTest, GlobalsAreBound) {
  CheckerRig rig;
  EXPECT_TRUE(rig.clean(
      "tactic t(g : ServerGroupT) : boolean = { return g.load > "
      "maxServerLoad; }"));
}

TEST(CheckerTest, InvariantHandlerMustExist) {
  CheckerRig rig;
  EXPECT_TRUE(rig.flags(
      "invariant r : averageLatency <= maxLatency !-> fixEverything(r);",
      "not a strategy"));
}

TEST(CheckerTest, InvariantHandlerArityChecked) {
  CheckerRig rig;
  EXPECT_TRUE(rig.flags(
      "invariant r : averageLatency <= maxLatency !-> fix(r);\n"
      "strategy fix(a : ClientT, b : ClientT) = { commit repair; }",
      "invariant passes 1"));
}

TEST(CheckerTest, InvariantUnqualifiedNamesTolerated) {
  CheckerRig rig;
  // averageLatency/maxLatency resolve only at instantiation; no issue.
  EXPECT_TRUE(rig.clean(
      "invariant r : averageLatency <= maxLatency !-> fix(r);\n"
      "strategy fix(c : ClientT) = { commit repair; }"));
}

TEST(CheckerTest, CommitOutsideStrategyFlagged) {
  CheckerRig rig;
  EXPECT_TRUE(rig.flags(
      "tactic t(c : ClientT) : boolean = { commit repair; }",
      "only valid inside a strategy"));
}

TEST(CheckerTest, ReturnInsideStrategyFlagged) {
  CheckerRig rig;
  EXPECT_TRUE(rig.flags("strategy s(c : ClientT) = { return true; }",
                        "'return' inside a strategy"));
}

TEST(CheckerTest, TacticCallArityChecked) {
  CheckerRig rig;
  EXPECT_TRUE(rig.flags(
      "strategy s(c : ClientT) = { if (t(c, c)) { commit repair; } "
      "else { abort X; } }\n"
      "tactic t(c : ClientT) : boolean = { return true; }",
      "tactic 't' takes 1"));
}

TEST(CheckerTest, UnknownBinderTypeFlagged) {
  CheckerRig rig;
  EXPECT_TRUE(rig.flags(
      "tactic t(c : ClientT) : boolean = {\n"
      "  let xs : set{GhostT} = select g : GhostT in self.Components | true;\n"
      "  return size(xs) > 0;\n"
      "}",
      "unknown style type 'GhostT'"));
}

TEST(CheckerTest, NonBooleanConditionsFlagged) {
  CheckerRig rig;
  EXPECT_TRUE(rig.flags(
      "tactic t(g : ServerGroupT) : boolean = { if (g.load) { return true; } "
      "return false; }",
      "not boolean"));
  EXPECT_TRUE(rig.flags(
      "tactic t(g : ServerGroupT) : boolean = { return g.load and true; }",
      "not boolean"));
}

TEST(CheckerTest, ForeachOverNonSetFlagged) {
  CheckerRig rig;
  EXPECT_TRUE(rig.flags(
      "tactic t(g : ServerGroupT) : boolean = { foreach x in g.load { "
      "x.addServer(); } return true; }",
      "not a set"));
}

TEST(CheckerTest, ArithmeticTypeErrors) {
  CheckerRig rig;
  EXPECT_TRUE(rig.flags(
      "tactic t(c : ClientT) : boolean = { return (c.name - 3) > 0; }",
      "arithmetic on string"));
  EXPECT_TRUE(rig.flags(
      "tactic t(c : ClientT) : boolean = { return !(c.name); }",
      "'!' applied to string"));
}

TEST(CheckerTest, ExpressionEntryPoint) {
  CheckerRig rig;
  auto good = parse_expression("averageLatency <= maxLatency");
  EXPECT_TRUE(rig.checker.check_expression(*good, "ClientT").empty());
  auto bad = parse_expression("averageLatencee <= maxLatency");
  auto issues = rig.checker.check_expression(*bad, "ClientT");
  ASSERT_FALSE(issues.empty());
  EXPECT_NE(issues[0].message.find("unbound name"), std::string::npos);
}

TEST(CheckerTest, SetTypePropagationThroughSelect) {
  CheckerRig rig;
  EXPECT_TRUE(rig.clean(
      "tactic t(c : ClientT) : boolean = {\n"
      "  let groups : set{ServerGroupT} =\n"
      "    select g : ServerGroupT in self.Components | connected(g, c);\n"
      "  foreach g in groups { g.addServer(); }\n"
      "  return size(groups) > 0;\n"
      "}"));
  // Without the annotation the select's type still flows through.
  EXPECT_TRUE(rig.flags(
      "tactic t(c : ClientT) : boolean = {\n"
      "  let groups = select g : ServerGroupT in self.Components | true;\n"
      "  foreach g in groups { g.move(c); }\n"
      "  return true;\n"
      "}",
      "applies to ClientT"));
}

}  // namespace
}  // namespace arcadia::acme
