// arcverify's script rules, pinned by a golden-diagnostic corpus: each
// seeded defect class must be caught with the exact rule id and anchor
// (line:col), and the shipped scripts must verify clean — the gate the
// `arcverify_gate` ctest and the static-analysis CI lane rely on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "acme/analysis.hpp"
#include "acme/effects.hpp"
#include "acme/flow.hpp"
#include "acme/script.hpp"
#include "repair/scripts.hpp"
#include "repair/style_ops.hpp"

namespace arcadia::acme {
namespace {

using analysis::AnalysisIssue;

std::vector<AnalysisIssue> analyze(const std::string& source) {
  const Script script = parse_script(source);
  return analysis::analyze_script(script, repair::client_server_vocabulary());
}

std::string dump(const std::vector<AnalysisIssue>& issues) {
  std::string out;
  for (const AnalysisIssue& i : issues) out += i.to_string() + "\n";
  return out;
}

TEST(AnalysisTest, RuleIdsAreSortedAndComplete) {
  const std::vector<std::string> ids = analysis::rule_ids();
  EXPECT_EQ(ids.size(), 8u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_EQ(ids.front(), "conflicting-strategies");
  EXPECT_EQ(ids.back(), "unknown-operator-effect");
}

// ---- golden corpus: one seeded defect per script -------------------------

// The Figure 5 bug class: the latency invariant's handler runs a tactic
// whose effects (removeServer: replicationCount/load/utilization) do not
// touch the invariant's support property (averageLatency) at all — the
// repair commits and cannot possibly discharge the violation.
TEST(AnalysisTest, GoldenIneffectiveTactic) {
  const std::string source =
      "invariant r : averageLatency <= maxLatency !-> fixLatency(r);\n"   // 1
      "\n"                                                                // 2
      "strategy fixLatency(c : ClientT) = {\n"                            // 3
      "  if (trimInstead(c)) {\n"                                         // 4
      "    commit repair;\n"                                              // 5
      "  } else {\n"                                                      // 6
      "    abort NoTactic;\n"                                             // 7
      "  }\n"                                                             // 8
      "}\n"                                                               // 9
      "\n"                                                                // 10
      "tactic trimInstead(c : ClientT) : boolean = {\n"                   // 11
      "  let g : ServerGroupT =\n"                                        // 12
      "    select one sg : ServerGroupT in self.Components |\n"           // 13
      "      connected(c, sg);\n"                                         // 14
      "  if (g == nil) {\n"                                               // 15
      "    return false;\n"                                               // 16
      "  }\n"                                                             // 17
      "  g.removeServer();\n"                                             // 18
      "  return true;\n"                                                  // 19
      "}\n";                                                              // 20
  const auto issues = analyze(source);
  ASSERT_EQ(issues.size(), 1u) << dump(issues);
  EXPECT_EQ(issues[0].rule, "ineffective-tactic");
  EXPECT_EQ(issues[0].severity, Severity::Error);
  EXPECT_EQ(issues[0].line, 11);
  EXPECT_EQ(issues[0].column, 1);  // anchored at the tactic declaration
  EXPECT_NE(issues[0].message.find("trimInstead"), std::string::npos);
  EXPECT_NE(issues[0].message.find("averageLatency"), std::string::npos);
}

// A later FirstSuccess sibling whose guard implies an earlier sibling's
// guard, where the earlier sibling always succeeds past its guard: the
// later arm is unreachable (subsumed guard -> dead tactic).
TEST(AnalysisTest, GoldenDeadTacticFromSubsumedGuard) {
  const std::string source =
      "invariant g : load <= maxServerLoad !-> fixLoad(g);\n"             // 1
      "\n"                                                                // 2
      "strategy fixLoad(grp : ServerGroupT) = {\n"                        // 3
      "  if (growAlways(grp)) {\n"                                        // 4
      "    commit repair;\n"                                              // 5
      "  } else if (growMore(grp)) {\n"                                   // 6
      "    commit repair;\n"                                              // 7
      "  } else {\n"                                                      // 8
      "    abort NoTactic;\n"                                             // 9
      "  }\n"                                                             // 10
      "}\n"                                                               // 11
      "\n"                                                                // 12
      "tactic growAlways(grp : ServerGroupT) : boolean = {\n"             // 13
      "  if (grp.load <= maxServerLoad) {\n"                              // 14
      "    return false;\n"                                               // 15
      "  }\n"                                                             // 16
      "  grp.addServer();\n"                                              // 17
      "  return true;\n"                                                  // 18
      "}\n"                                                               // 19
      "\n"                                                                // 20
      "tactic growMore(grp : ServerGroupT) : boolean = {\n"               // 21
      "  if (grp.load <= maxServerLoad) {\n"                              // 22
      "    return false;\n"                                               // 23
      "  }\n"                                                             // 24
      "  if (grp.load <= 90) {\n"                                         // 25
      "    return false;\n"                                               // 26
      "  }\n"                                                             // 27
      "  grp.addServer();\n"                                              // 28
      "  return true;\n"                                                  // 29
      "}\n";                                                              // 30
  const auto issues = analyze(source);
  ASSERT_EQ(issues.size(), 1u) << dump(issues);
  EXPECT_EQ(issues[0].rule, "dead-tactic");
  EXPECT_EQ(issues[0].severity, Severity::Error);
  EXPECT_EQ(issues[0].line, 6);  // anchored at the unreachable arm's call
  EXPECT_EQ(issues[0].column, 22);
  EXPECT_NE(issues[0].message.find("growMore"), std::string::npos);
  EXPECT_NE(issues[0].message.find("growAlways"), std::string::npos);
}

// A strategy whose one-armed if can fall through without commit or abort.
TEST(AnalysisTest, GoldenNoVerdictStrategy) {
  const std::string source =
      "invariant g : load <= maxServerLoad !-> fixLoad(g);\n"             // 1
      "\n"                                                                // 2
      "strategy fixLoad(grp : ServerGroupT) = {\n"                        // 3
      "  if (grow(grp)) {\n"                                              // 4
      "    commit repair;\n"                                              // 5
      "  }\n"                                                             // 6
      "}\n"                                                               // 7
      "\n"                                                                // 8
      "tactic grow(grp : ServerGroupT) : boolean = {\n"                   // 9
      "  grp.addServer();\n"                                              // 10
      "  return true;\n"                                                  // 11
      "}\n";                                                              // 12
  const auto issues = analyze(source);
  ASSERT_EQ(issues.size(), 1u) << dump(issues);
  EXPECT_EQ(issues[0].rule, "no-verdict");
  EXPECT_EQ(issues[0].severity, Severity::Error);
  EXPECT_EQ(issues[0].line, 3);
  EXPECT_EQ(issues[0].column, 1);  // anchored at the strategy declaration
}

// Two strategies watching the same property and pushing it in opposite
// directions: grow (addServer: load down) vs shrink (removeServer: load
// up) both triggered by load thresholds.
TEST(AnalysisTest, GoldenConflictingStrategies) {
  const std::string source =
      "invariant a : load <= maxServerLoad !-> growStrategy(a);\n"        // 1
      "invariant b : load >= minUtilization !-> shrinkStrategy(b);\n"     // 2
      "\n"                                                                // 3
      "strategy growStrategy(grp : ServerGroupT) = {\n"                   // 4
      "  if (grow(grp)) { commit repair; } else { abort NoTactic; }\n"    // 5
      "}\n"                                                               // 6
      "\n"                                                                // 7
      "strategy shrinkStrategy(grp : ServerGroupT) = {\n"                 // 8
      "  if (shrink(grp)) { commit repair; } else { abort NoTactic; }\n"  // 9
      "}\n"                                                               // 10
      "\n"                                                                // 11
      "tactic grow(grp : ServerGroupT) : boolean = {\n"                   // 12
      "  grp.addServer();\n"                                              // 13
      "  return true;\n"                                                  // 14
      "}\n"                                                               // 15
      "\n"                                                                // 16
      "tactic shrink(grp : ServerGroupT) : boolean = {\n"                 // 17
      "  grp.removeServer();\n"                                           // 18
      "  return true;\n"                                                  // 19
      "}\n";                                                              // 20
  const auto issues = analyze(source);
  ASSERT_EQ(issues.size(), 1u) << dump(issues);
  EXPECT_EQ(issues[0].rule, "conflicting-strategies");
  EXPECT_EQ(issues[0].severity, Severity::Warning);
  EXPECT_EQ(issues[0].line, 8);  // the second strategy of the pair
  EXPECT_NE(issues[0].message.find("load"), std::string::npos);
}

// An operator call with no entry in the effect table: warn — every other
// rule is blind to its writes.
TEST(AnalysisTest, GoldenUnknownOperatorEffect) {
  const std::string source =
      "tactic frob(grp : ServerGroupT) : boolean = {\n"                   // 1
      "  grp.frobnicate();\n"                                             // 2
      "  return true;\n"                                                  // 3
      "}\n";                                                              // 4
  const auto issues = analyze(source);
  ASSERT_EQ(issues.size(), 1u) << dump(issues);
  EXPECT_EQ(issues[0].rule, "unknown-operator-effect");
  EXPECT_EQ(issues[0].severity, Severity::Warning);
  EXPECT_EQ(issues[0].line, 2);
  EXPECT_NE(issues[0].message.find("frobnicate"), std::string::npos);
}

// ---- golden corpus: deployment rules over plain views --------------------

TEST(AnalysisTest, GoldenUngaugedConstraint) {
  analysis::DeploymentView view;
  view.constraints.push_back(analysis::ConstraintView{
      "inv:r", "Client1", {"averageLatency"}, /*line=*/1, /*column=*/15});
  // The only gauge on Client1 produces a different property; a latency
  // gauge on another element does not count.
  view.gauge_feeds.push_back(analysis::GaugeFeed{"Client1", "bandwidth"});
  view.gauge_feeds.push_back(analysis::GaugeFeed{"Client2", "averageLatency"});
  const auto issues = analysis::verify_deployment(view);
  ASSERT_EQ(issues.size(), 1u) << dump(issues);
  EXPECT_EQ(issues[0].rule, "ungauged-constraint");
  EXPECT_EQ(issues[0].severity, Severity::Error);
  EXPECT_EQ(issues[0].line, 1);
  EXPECT_EQ(issues[0].column, 15);
  EXPECT_NE(issues[0].message.find("inv:r"), std::string::npos);

  // Feeding the read property on the right element silences the rule.
  view.gauge_feeds.push_back(analysis::GaugeFeed{"Client1", "averageLatency"});
  EXPECT_TRUE(analysis::verify_deployment(view).empty());
}

TEST(AnalysisTest, GoldenUncostedOperator) {
  analysis::DeploymentView view;
  view.operators_used.push_back(
      OperatorUse{"addServer", "fixServerLoad", /*line=*/7, /*column=*/9});
  view.operators_used.push_back(
      OperatorUse{"addServer", "growGroup", /*line=*/21, /*column=*/5});
  view.operator_costs_s["move"] = 0.12;  // declared, but not addServer
  const auto issues = analysis::verify_deployment(view);
  ASSERT_EQ(issues.size(), 1u) << dump(issues);  // deduped by operator name
  EXPECT_EQ(issues[0].rule, "uncosted-operator");
  EXPECT_EQ(issues[0].severity, Severity::Error);
  EXPECT_EQ(issues[0].line, 7);  // the first reachable call site
  EXPECT_EQ(issues[0].column, 9);
  EXPECT_NE(issues[0].message.find("addServer"), std::string::npos);

  // A zero/negative declared cost is as bad as a missing one.
  view.operator_costs_s["addServer"] = 0.0;
  EXPECT_EQ(analysis::verify_deployment(view).size(), 1u);
  view.operator_costs_s["addServer"] = 0.24;
  EXPECT_TRUE(analysis::verify_deployment(view).empty());
}

// ---- the shipped scripts must verify clean (satellite pin) ---------------

TEST(AnalysisTest, Figure5ScriptVerifiesClean) {
  const auto issues = analyze(figure5_script());
  EXPECT_TRUE(issues.empty()) << dump(issues);
}

TEST(AnalysisTest, ExtendedScriptVerifiesClean) {
  const auto issues = analyze(repair::extended_script());
  EXPECT_TRUE(issues.empty()) << dump(issues);
}

// ---- effect/flow building blocks -----------------------------------------

TEST(AnalysisTest, EffectInferenceClosesOverTacticCalls) {
  // fixBandwidth's move comes back through the caller's summary too.
  const Script script = parse_script(figure5_script());
  const ScriptEffects effects =
      infer_effects(script, repair::client_server_vocabulary());
  const TacticEffects* fx = effects.find("fixServerLoad");
  ASSERT_NE(fx, nullptr);
  EXPECT_TRUE(fx->writes.count("replicationCount"));
  EXPECT_TRUE(fx->adds_element);
  auto inf = fx->influences.find("averageLatency");
  ASSERT_NE(inf, fx->influences.end());
  EXPECT_EQ(inf->second, EffectDirection::Decrease);
}

TEST(AnalysisTest, GuardExtractionNormalizesEarlyOuts) {
  const Script script = parse_script(figure5_script());
  const TacticDecl* shrink = script.find_tactic("shrinkGroup");
  ASSERT_NE(shrink, nullptr);
  const TacticGuard guard = extract_guard(*shrink);
  // Two early-outs -> two negated conjuncts.
  ASSERT_EQ(guard.conjuncts.size(), 2u);
  EXPECT_EQ(guard.conjuncts[0].rel, GuardConjunct::Rel::Lt);
  EXPECT_EQ(guard.conjuncts[0].subject, "group.utilization");
  // Past both early-outs the body is `removeServer(); return true;`.
  EXPECT_TRUE(always_succeeds(*shrink));
}

TEST(AnalysisTest, OpWithinEffectsMatchesJournalShapes) {
  TacticEffects fx;
  fx.writes.insert("replicationCount");
  fx.adds_element = true;

  model::OpRecord set;
  set.kind = model::OpKind::SetProperty;
  set.property = "replicationCount";
  EXPECT_TRUE(analysis::op_within_effects(set, fx));
  set.property = "boundTo";
  EXPECT_FALSE(analysis::op_within_effects(set, fx));

  model::OpRecord add;
  add.kind = model::OpKind::AddComponent;
  EXPECT_TRUE(analysis::op_within_effects(add, fx));
  model::OpRecord detach;
  detach.kind = model::OpKind::Detach;
  EXPECT_FALSE(analysis::op_within_effects(detach, fx));  // no rewires
  fx.rewires = true;
  EXPECT_TRUE(analysis::op_within_effects(detach, fx));
}

}  // namespace
}  // namespace arcadia::acme
