// Static analysis of Armani expressions and repair scripts against an
// architectural style. Armani was a *typed* constraint language; this
// checker restores that: it catches misspelled properties, unknown
// operators and functions, arity errors, unbound names, and
// commit/abort misuse before a script ever runs against a live model —
// exactly the class of bug the paper's handwritten repairs were prone to
// (Figure 5 itself contains several).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "acme/ast.hpp"
#include "acme/effects.hpp"
#include "model/types.hpp"

namespace arcadia::acme {

/// Diagnostic severity shared by the checker and the semantic analyses
/// (acme/analysis.hpp). Errors fail strict verification runs (the arcverify
/// gate, FrameworkConfig::VerifyMode::Error); warnings are advisory.
enum class Severity { Error, Warning };

inline const char* to_string(Severity s) {
  return s == Severity::Error ? "error" : "warning";
}

struct CheckIssue {
  int line = 0;
  int column = 0;
  Severity severity = Severity::Error;
  std::string message;
  std::string to_string() const {
    return "line " + std::to_string(line) + ":" + std::to_string(column) +
           ": " + std::string(arcadia::acme::to_string(severity)) + ": " +
           message;
  }
};

/// Best-effort type vocabulary: style element-type names, "set{T}",
/// "number", "string", "boolean", "nil", "System", or "" (unknown —
/// checks involving it are skipped rather than reported).
class ScriptChecker {
 public:
  /// Checks scripts against `style`'s types and `vocabulary`'s operators,
  /// functions and globals, plus the expression builtins. Both must
  /// outlive the checker.
  ScriptChecker(const model::Style& style, const Vocabulary& vocabulary);

  /// Check a whole script: every invariant, strategy, and tactic.
  std::vector<CheckIssue> check_script(const Script& script);

  /// Check one expression; `context_type` is the element type unqualified
  /// property names resolve against (the invariant's element), may be "".
  std::vector<CheckIssue> check_expression(const Expr& expr,
                                           const std::string& context_type);

 private:
  struct Scope {
    std::map<std::string, std::string> names;  // name -> type
  };

  std::string infer(const Expr& expr, std::vector<Scope>& scopes,
                    const std::string& context_type,
                    std::vector<CheckIssue>& out);
  void check_stmt(const Stmt& stmt, std::vector<Scope>& scopes,
                  const std::string& context_type, bool in_strategy,
                  std::vector<CheckIssue>& out);
  std::string member_type(const std::string& object_type,
                          const std::string& member, int line, int column,
                          std::vector<CheckIssue>& out) const;
  const std::string* lookup(const std::vector<Scope>& scopes,
                            const std::string& name) const;
  static bool is_set(const std::string& type) {
    return type.rfind("set{", 0) == 0;
  }
  static std::string set_element(const std::string& type) {
    return is_set(type) ? type.substr(4, type.size() - 5) : "";
  }

  const model::Style& style_;
  const Vocabulary& vocabulary_;
  const Script* script_ = nullptr;  // for tactic-call resolution
  /// Invariant conditions resolve names against an element chosen only at
  /// instantiation time; unknown names there are not errors.
  bool lenient_names_ = false;
};

}  // namespace arcadia::acme
