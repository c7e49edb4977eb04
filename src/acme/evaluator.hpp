// Tree-walking evaluator for Armani-style expressions over an architectural
// model. Used for: style invariants (constraint checking), tactic
// preconditions, and the expression half of repair scripts.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "acme/ast.hpp"
#include "events/value.hpp"
#include "model/system.hpp"
#include "util/symbol.hpp"

namespace arcadia::acme {

/// A reference to a model element (or to a system itself, for `self`).
struct ElementRef {
  const model::Element* element = nullptr;  ///< null for system references
  const model::System* system = nullptr;    ///< containing system (or self)
  model::ElementKind kind = model::ElementKind::System;
  std::string owner;  ///< owning component/connector name for ports/roles

  const std::string& name() const;
  bool is_system() const { return kind == model::ElementKind::System; }

  friend bool operator==(const ElementRef& a, const ElementRef& b) {
    return a.element == b.element && a.system == b.system;
  }

  static ElementRef of_system(const model::System& sys) {
    return ElementRef{nullptr, &sys, model::ElementKind::System, ""};
  }
  static ElementRef of_component(const model::System& sys,
                                 const model::Component& c) {
    return ElementRef{&c, &sys, model::ElementKind::Component, ""};
  }
  static ElementRef of_connector(const model::System& sys,
                                 const model::Connector& c) {
    return ElementRef{&c, &sys, model::ElementKind::Connector, ""};
  }
  static ElementRef of_port(const model::System& sys, const model::Component& c,
                            const model::Port& p) {
    return ElementRef{&p, &sys, model::ElementKind::Port, c.name()};
  }
  static ElementRef of_role(const model::System& sys, const model::Connector& c,
                            const model::Role& r) {
    return ElementRef{&r, &sys, model::ElementKind::Role, c.name()};
  }
};

/// Runtime value domain of the expression language: nil, a scalar (the
/// bus's and the model's events::Value, so a property read hands over the
/// stored value and compares by the same rules), an element reference, or
/// a shared set.
class EvalValue {
 public:
  using Set = std::vector<EvalValue>;

  EvalValue() = default;
  static EvalValue nil() { return EvalValue(); }
  EvalValue(events::Value v) : v_(std::move(v)) {}                // NOLINT
  EvalValue(bool b) : v_(events::Value(b)) {}                     // NOLINT
  EvalValue(double n) : v_(events::Value(n)) {}                   // NOLINT
  EvalValue(int n) : v_(events::Value(n)) {}                      // NOLINT
  EvalValue(std::string s) : v_(events::Value(std::move(s))) {}   // NOLINT
  EvalValue(const char* s) : EvalValue(std::string(s)) {}         // NOLINT
  EvalValue(ElementRef e) : v_(std::move(e)) {}                   // NOLINT
  explicit EvalValue(Set set)
      : v_(std::make_shared<const Set>(std::move(set))) {}

  bool is_nil() const { return std::holds_alternative<std::monostate>(v_); }
  bool is_bool() const { return scalar() && scalar()->is_bool(); }
  bool is_number() const { return scalar() && scalar()->is_numeric(); }
  bool is_string() const { return scalar() && scalar()->is_string(); }
  bool is_element() const { return std::holds_alternative<ElementRef>(v_); }
  bool is_set() const {
    return std::holds_alternative<std::shared_ptr<const Set>>(v_);
  }
  /// The scalar value, or null for nil, elements and sets.
  const events::Value* scalar() const {
    return std::get_if<events::Value>(&v_);
  }

  /// Typed accessors; throw ScriptError on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const ElementRef& as_element() const;
  const Set& as_set() const;

  /// Truthiness: only booleans are truthy/falsy (no implicit coercion).
  bool truthy() const;

  /// Scalars by events::Value's ==; elements by identity; sets
  /// elementwise; nil only equals nil.
  bool equals(const EvalValue& other) const;
  std::string to_string() const;

 private:
  std::variant<std::monostate, events::Value, ElementRef,
               std::shared_ptr<const Set>>
      v_;
};

class EvalContext;

/// Extension function: free functions callable from expressions (the
/// runtime-layer queries such as findGoodSGrp plug in here).
using ExprFn =
    std::function<EvalValue(std::vector<EvalValue>&, EvalContext&)>;
/// Method dispatch hook for `element.op(args)` calls (style operators);
/// installed by the script interpreter. The operator name arrives interned.
using MethodFn = std::function<EvalValue(const ElementRef&, util::Symbol,
                                         std::vector<EvalValue>&, EvalContext&)>;

/// Lexical scope chain + the model being queried. Bindings and function
/// registries are keyed by interned Symbols; per-evaluation lookups are
/// integer probes.
class EvalContext {
 public:
  explicit EvalContext(const model::System& self) : self_(&self) {}

  const model::System& self() const { return *self_; }

  void bind(util::Symbol name, EvalValue value) {
    bindings_.insert_or_assign(name, std::move(value));
  }
  void bind(std::string_view name, EvalValue value) {
    bind(util::Symbol::intern(name), std::move(value));
  }
  /// Walks the scope chain; null when unbound.
  const EvalValue* lookup(util::Symbol name) const;
  const EvalValue* lookup(std::string_view name) const {
    return lookup(util::Symbol::intern(name));
  }

  /// Child scope sharing registries and self.
  EvalContext child() const;

  void set_functions(util::SymbolMap<ExprFn>* fns) { functions_ = fns; }
  const ExprFn* find_function(util::Symbol name) const;
  void set_method_handler(MethodFn* handler) { method_handler_ = handler; }
  const MethodFn* method_handler() const;

  /// Element supplying unqualified property references (an invariant
  /// attached to a client evaluates `averageLatency` against that client).
  void set_context_element(ElementRef element) {
    context_element_ = std::move(element);
    has_context_element_ = true;
  }
  const ElementRef* context_element() const;

 private:
  const model::System* self_;
  const EvalContext* parent_ = nullptr;
  util::SymbolMap<EvalValue> bindings_;
  util::SymbolMap<ExprFn>* functions_ = nullptr;
  MethodFn* method_handler_ = nullptr;
  ElementRef context_element_;
  bool has_context_element_ = false;
};

/// An expression-language builtin (size, contains, abs, ...): its checker
/// signature and its implementation.
struct Builtin {
  const char* name;
  std::size_t args;         ///< argument count, checked at dispatch
  const char* result_type;  ///< checker type of the result
  const char* params;       ///< parameter names, as the arity error shows them
  EvalValue (*fn)(std::vector<EvalValue>& args, EvalContext& ctx);
};

/// The builtin called `name`, or null.
const Builtin* find_builtin(util::Symbol name);

/// Throws ScriptError("name(params) takes one argument", ...) unless `got`
/// equals `want`: the one arity check of builtins and style operators and
/// functions at dispatch.
void check_arity(const char* name, const char* params, std::size_t want,
                 std::size_t got);

/// True for the ordering operators `<`, `<=`, `>` and `>=`.
bool is_ordering(BinaryExpr::Op op);

/// `lhs op rhs` for an ordering operator, ordered by events::Value::compare
/// (numbers by value, strings lexicographically); any other pair throws
/// ScriptError ("cannot order ...", with `line` when positive). The
/// evaluator's binary operators and the constraint checker's threshold form
/// both compare through it.
bool compare_ordered(BinaryExpr::Op op, const EvalValue& lhs,
                     const EvalValue& rhs, int line);

class Evaluator {
 public:
  Evaluator();

  EvalValue evaluate(const Expr& expr, EvalContext& ctx) const;

  /// Evaluate an expression expected to produce a boolean (invariants,
  /// preconditions); throws ScriptError otherwise.
  bool evaluate_bool(const Expr& expr, EvalContext& ctx) const;

 private:
  EvalValue eval_member(const MemberExpr& m, EvalContext& ctx) const;
  EvalValue eval_call(const CallExpr& c, EvalContext& ctx) const;
  EvalValue eval_binary(const BinaryExpr& b, EvalContext& ctx) const;
  EvalValue eval_select(const SelectExpr& s, EvalContext& ctx) const;
  EvalValue eval_quant(const QuantExpr& q, EvalContext& ctx) const;
  EvalValue member_of_element(const ElementRef& ref, util::Symbol member,
                              int line) const;

  const util::SymbolMap<Builtin>* builtins_;  ///< shared, built once
};

}  // namespace arcadia::acme
