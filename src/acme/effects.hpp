// Symbolic effect inference over parsed repair scripts.
//
// The checker (checker.hpp) answers "is this script well-typed against the
// style?"; this layer answers "what does this script *do*?" — which
// properties each tactic reads, which it writes (through style operators),
// and which it merely *influences* (an operator's predicted effect on
// observed properties, e.g. addServer is expected to drive load down).
// The analysis in analysis.hpp consumes these sets to flag ineffective
// repairs (the Figure 5 bug class) and conflicting strategies; the plan
// optimizer uses the per-operator write footprints as dependency edges; and
// the test-suite soundness oracle checks every journaled OpRecord of a
// committed repair against the inferred write set of the tactic that
// produced it. Both read a style's Vocabulary, defined here: its
// operators' signatures and footprints, its query functions, its globals.
#pragma once

#include <map>
#include <set>
#include <cstddef>
#include <string>
#include <vector>

#include "acme/ast.hpp"

namespace arcadia::acme {

/// Predicted direction an operator pushes an observed property.
enum class EffectDirection { Increase, Decrease, Unknown };

const char* to_string(EffectDirection d);

/// Records that something pushes `prop` in `dir`; a direction that
/// disagrees with one already recorded collapses to Unknown.
void merge_direction(std::map<std::string, EffectDirection>& directions,
                     const std::string& prop, EffectDirection dir);

/// Static model of one style operator: its script signature and its
/// runtime footprint.
struct OperatorEffect {
  std::string name;         ///< operator name, as scripts call it
  std::string target_type;  ///< element type it applies to ("" = any)
  std::size_t args = 0;     ///< argument count
  /// Properties the operator's journal footprint sets directly
  /// (SetProperty OpRecords) — the *write set* proper.
  std::set<std::string> writes;
  /// Properties the operator is expected to move indirectly (via the
  /// environment), and in which direction. Superset of `writes` in
  /// spirit: a write with a known direction appears here too.
  std::map<std::string, EffectDirection> influences;
  bool adds_element = false;     ///< journals AddComponent
  bool removes_element = false;  ///< journals RemoveComponent
  bool rewires = false;          ///< journals Attach/Detach
};

/// A style query function scripts call as name(args).
struct FunctionSig {
  std::string name;
  std::size_t args = 0;
  std::string result_type;  ///< checker type of the result ("" = unknown)
};

/// A style's script vocabulary, as plain data: the operators scripts call
/// on elements, the query functions they call, and the task-layer globals
/// (threshold names that are *parameters*, not model properties — they are
/// excluded from read/support sets, and the checker types them as
/// numbers). The style declares it (repair/style_ops.hpp); the checker and
/// the analyses read it.
struct Vocabulary {
  std::vector<OperatorEffect> operators;
  std::vector<FunctionSig> functions;
  std::set<std::string> globals;

  const OperatorEffect* find_operator(const std::string& name) const;
  const FunctionSig* find_function(const std::string& name) const;
  bool is_global(const std::string& name) const {
    return globals.count(name) != 0;
  }
};

/// One operator call site inside a tactic body.
struct OperatorUse {
  std::string op;      ///< operator name
  std::string tactic;  ///< enclosing tactic
  int line = 0;
  int column = 0;
};

/// Inferred effect summary for one tactic (transitively closed over the
/// tactics it calls).
struct TacticEffects {
  std::string name;
  int line = 0;
  int column = 0;
  /// Properties the body reads (member accesses and unqualified context
  /// property names; excludes globals, parameters, lets, binders).
  std::set<std::string> reads;
  /// Union of the write sets of every operator the body can invoke.
  std::set<std::string> writes;
  /// Union of operator influences; conflicting directions collapse to
  /// Unknown.
  std::map<std::string, EffectDirection> influences;
  /// Operator call sites, in source order (includes callee tactics' sites).
  std::vector<OperatorUse> operators;
  /// Names of tactics this tactic calls directly.
  std::set<std::string> calls;
  bool adds_element = false;
  bool removes_element = false;
  bool rewires = false;
};

/// Effect summaries for every tactic in a script, keyed by tactic name.
struct ScriptEffects {
  std::map<std::string, TacticEffects> tactics;

  const TacticEffects* find(const std::string& name) const {
    auto it = tactics.find(name);
    return it == tactics.end() ? nullptr : &it->second;
  }
};

/// Walk every tactic body and compute its effect summary. Unknown
/// operator calls contribute nothing to the write set (analysis.hpp
/// reports them separately as `unknown-operator-effect`).
ScriptEffects infer_effects(const Script& script, const Vocabulary& table);

/// Free property names of an expression: unqualified/member property
/// reads, minus the vocabulary's globals, `self`, and `bound` names. This is
/// the *support* of an invariant — the properties whose values decide it.
std::set<std::string> free_properties(const Expr& expr,
                                      const Vocabulary& table,
                                      const std::set<std::string>& bound = {});

/// Canonical single-line rendering of an expression (for guard comparison
/// and diagnostics).
std::string render_expr(const Expr& expr);

}  // namespace arcadia::acme
