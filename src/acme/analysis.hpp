// arcverify's semantic analysis: effect/flow checks over a parsed repair
// script, and cross-artifact verification of an assembled deployment.
//
// Script rules (analyze_script):
//   ineffective-tactic    (error)   a tactic reachable from an invariant's
//                                   strategy influences none of the
//                                   invariant's support properties in a
//                                   helpful direction — the Figure 5 bug
//                                   class: the repair runs, commits, and
//                                   cannot possibly discharge the violation.
//   dead-tactic           (error)   a FirstSuccess sibling whose guard is
//                                   implied by an earlier sibling that
//                                   always succeeds — it can never run.
//   no-verdict            (error)   a strategy path that ends without
//                                   commit or abort.
//   conflicting-strategies (warning) two strategies with overlapping
//                                   invariant support push the same
//                                   property in opposite directions.
//   unknown-operator-effect (warning) an operator call with no entry in
//                                   the vocabulary (its writes are
//                                   invisible to every other rule).
//
// Deployment rules (verify_deployment):
//   ungauged-constraint   (error)   an installed constraint none of whose
//                                   read properties is fed by any gauge on
//                                   its element — it can never trip.
//   uncosted-operator     (error)   a style operator reachable from the
//                                   installed script with no declared
//                                   environment cost — plan estimates
//                                   silently default.
//   scenario-config       (error)   a scenario/fault config referencing
//                                   unknown scenarios or carrying
//                                   out-of-range parameters (checked by
//                                   core::verify_scenario_config).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "acme/ast.hpp"
#include "acme/checker.hpp"
#include "acme/effects.hpp"
#include "model/transaction.hpp"

namespace arcadia::acme::analysis {

struct AnalysisIssue {
  std::string rule;
  Severity severity = Severity::Error;
  int line = 0;
  int column = 0;
  std::string message;

  std::string to_string() const {
    return "line " + std::to_string(line) + ":" + std::to_string(column) +
           ": " + std::string(acme::to_string(severity)) + ": " + message +
           " [" + rule + "]";
  }
};

/// All analysis rule ids, sorted (script + deployment).
std::vector<std::string> rule_ids();

/// Run every script rule. Severity-error issues indicate a repair that
/// cannot work; warnings indicate blind spots.
std::vector<AnalysisIssue> analyze_script(const Script& script,
                                          const Vocabulary& table);

// ---------------------------------------------------------------------------
// Cross-artifact verification. The view is deliberately plain data so the
// acme layer stays independent of core/monitor/runtime: core/verify.cpp
// assembles it from a started Framework.

struct ConstraintView {
  std::string id;
  std::string element;
  std::set<std::string> reads;  ///< support properties of the condition
  int line = 0;
  int column = 0;
};

/// One gauge mapping: `property` of `element` is produced by some gauge.
struct GaugeFeed {
  std::string element;
  std::string property;
};

struct DeploymentView {
  std::vector<ConstraintView> constraints;
  std::vector<GaugeFeed> gauge_feeds;
  /// Declared per-operator runtime cost (seconds); absent or <= 0 means
  /// the plan cost model silently defaults.
  std::map<std::string, double> operator_costs_s;
  /// Operator call sites reachable from installed scripts.
  std::vector<OperatorUse> operators_used;
};

std::vector<AnalysisIssue> verify_deployment(const DeploymentView& view);

// ---------------------------------------------------------------------------
// Soundness oracle (test support): journaled ops vs inferred write sets.

/// True when `record` falls inside the statically inferred effect of
/// `effects`: SetProperty within the write set, AddComponent/
/// RemoveComponent/Attach/Detach covered by the structural flags.
bool op_within_effects(const model::OpRecord& record,
                       const TacticEffects& effects);

}  // namespace arcadia::acme::analysis
