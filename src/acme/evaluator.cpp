#include "acme/evaluator.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace arcadia::acme {

namespace {
[[noreturn]] void fail(int line, const std::string& message) {
  throw ScriptError(message + (line > 0 ? " (line " + std::to_string(line) + ")"
                                        : ""));
}

const std::string kSelfName = "self";

/// Pre-interned names the evaluator compares against on every member access.
struct WellKnown {
  util::Symbol self = util::Symbol::intern("self");
  util::Symbol components = util::Symbol::intern("Components");
  util::Symbol connectors = util::Symbol::intern("Connectors");
  util::Symbol ports = util::Symbol::intern("Ports");
  util::Symbol roles = util::Symbol::intern("Roles");
  util::Symbol representation = util::Symbol::intern("Representation");
  util::Symbol name = util::Symbol::intern("name");
  util::Symbol type = util::Symbol::intern("type");
};

const WellKnown& wk() {
  static const WellKnown w;
  return w;
}

/// Parser-interned symbol, or a one-off intern for hand-built AST nodes.
util::Symbol sym_of(const NameExpr& n) {
  return n.sym.empty() ? util::Symbol::intern(n.name) : n.sym;
}
util::Symbol sym_of(const MemberExpr& m) {
  return m.sym.empty() ? util::Symbol::intern(m.member) : m.sym;
}
}  // namespace

const std::string& ElementRef::name() const {
  if (element) return element->name();
  if (system) return system->name();
  return kSelfName;
}

bool EvalValue::as_bool() const {
  if (!is_bool()) throw ScriptError("expected boolean, got " + to_string());
  return scalar()->as_bool();
}

double EvalValue::as_number() const {
  if (!is_number()) throw ScriptError("expected number, got " + to_string());
  return scalar()->as_double();
}

const std::string& EvalValue::as_string() const {
  if (!is_string()) throw ScriptError("expected string, got " + to_string());
  return scalar()->as_string();
}

const ElementRef& EvalValue::as_element() const {
  if (!is_element()) {
    throw ScriptError("expected element reference, got " + to_string());
  }
  return std::get<ElementRef>(v_);
}

const EvalValue::Set& EvalValue::as_set() const {
  if (!is_set()) throw ScriptError("expected set, got " + to_string());
  return *std::get<std::shared_ptr<const Set>>(v_);
}

bool EvalValue::truthy() const {
  if (!is_bool()) {
    throw ScriptError("condition is not boolean: " + to_string());
  }
  return scalar()->as_bool();
}

bool EvalValue::equals(const EvalValue& other) const {
  if (v_.index() != other.v_.index()) return false;
  if (const events::Value* v = scalar()) return *v == *other.scalar();
  if (is_element()) return as_element() == other.as_element();
  if (is_set()) {
    return std::ranges::equal(as_set(), other.as_set(), &EvalValue::equals);
  }
  return true;  // nil
}

std::string EvalValue::to_string() const {
  if (const events::Value* v = scalar()) {
    // Every number renders as a double (an int property reads "2.000000").
    if (v->is_numeric()) return std::to_string(v->as_double());
    if (v->is_string()) return "\"" + v->as_string() + "\"";
    return v->to_string();
  }
  if (is_element()) return "<" + as_element().name() + ">";
  if (is_set()) {
    std::string s = "{";
    const Set& set = as_set();
    for (std::size_t i = 0; i < set.size(); ++i) {
      if (i) s += ", ";
      s += set[i].to_string();
    }
    return s + "}";
  }
  return "nil";
}

const EvalValue* EvalContext::lookup(util::Symbol name) const {
  if (const EvalValue* found = bindings_.find(name)) return found;
  return parent_ ? parent_->lookup(name) : nullptr;
}

EvalContext EvalContext::child() const {
  EvalContext c(*self_);
  c.parent_ = this;
  c.functions_ = functions_;
  c.method_handler_ = method_handler_;
  c.context_element_ = context_element_;
  c.has_context_element_ = has_context_element_;
  return c;
}

const ExprFn* EvalContext::find_function(util::Symbol name) const {
  if (functions_) {
    if (const ExprFn* found = functions_->find(name)) return found;
  }
  return parent_ ? parent_->find_function(name) : nullptr;
}

const MethodFn* EvalContext::method_handler() const {
  if (method_handler_) return method_handler_;
  return parent_ ? parent_->method_handler() : nullptr;
}

const ElementRef* EvalContext::context_element() const {
  if (has_context_element_) return &context_element_;
  return parent_ ? parent_->context_element() : nullptr;
}

// ---------------------------------------------------------------------------

void check_arity(const char* name, const char* params, std::size_t want,
                 std::size_t got) {
  if (got == want) return;
  const char* const counts[] = {"no arguments", "one argument",
                                "two arguments"};
  throw ScriptError(
      std::string(name) + "(" + params + ") takes " +
      (want < 3 ? counts[want] : std::to_string(want) + " arguments"));
}

namespace {

using Args = std::vector<EvalValue>;

/// The expression-language builtins, declared once: the checker reads
/// their arity and result type, eval_call dispatches to them.
const Builtin kBuiltins[] = {
    {"size", 1, "number", "",
     [](Args& args, EvalContext&) -> EvalValue {
       return EvalValue(static_cast<double>(args[0].as_set().size()));
     }},
    {"empty", 1, "boolean", "",
     [](Args& args, EvalContext&) -> EvalValue {
       return EvalValue(args[0].as_set().empty());
     }},
    {"contains", 2, "boolean", "set, x",
     [](Args& args, EvalContext&) -> EvalValue {
       for (const EvalValue& v : args[0].as_set()) {
         if (v.equals(args[1])) return EvalValue(true);
       }
       return EvalValue(false);
     }},
    {"connected", 2, "boolean", "a, b",
     [](Args& args, EvalContext& ctx) -> EvalValue {
       const ElementRef& a = args[0].as_element();
       const ElementRef& b = args[1].as_element();
       const model::System& sys = a.system ? *a.system : ctx.self();
       return EvalValue(sys.connected(a.name(), b.name()));
     }},
    {"attached", 2, "boolean", "x, y",
     [](Args& args, EvalContext& ctx) -> EvalValue {
       ElementRef a = args[0].as_element();
       ElementRef b = args[1].as_element();
       // Normalize to (port-ish, role).
       if (a.kind == model::ElementKind::Role) std::swap(a, b);
       if (b.kind != model::ElementKind::Role) {
         throw ScriptError("attached(): one argument must be a role");
       }
       const model::System& sys = b.system ? *b.system : ctx.self();
       for (const model::Attachment& att : sys.attachments()) {
         if (att.connector != b.owner || att.role != b.name()) continue;
         if (a.kind == model::ElementKind::Port) {
           if (att.component == a.owner && att.port == a.name()) {
             return EvalValue(true);
           }
         } else if (a.kind == model::ElementKind::Component) {
           if (att.component == a.name()) return EvalValue(true);
         }
       }
       return EvalValue(false);
     }},
    {"abs", 1, "number", "",
     [](Args& args, EvalContext&) -> EvalValue {
       return EvalValue(std::fabs(args[0].as_number()));
     }},
    {"min", 2, "number", "",
     [](Args& args, EvalContext&) -> EvalValue {
       return EvalValue(std::min(args[0].as_number(), args[1].as_number()));
     }},
    {"max", 2, "number", "",
     [](Args& args, EvalContext&) -> EvalValue {
       return EvalValue(std::max(args[0].as_number(), args[1].as_number()));
     }},
    {"hasProperty", 2, "boolean", "element, name",
     [](Args& args, EvalContext&) -> EvalValue {
       const ElementRef& e = args[0].as_element();
       if (!e.element) return EvalValue(false);
       return EvalValue(e.element->has_property(args[1].as_string()));
     }},
};

/// kBuiltins keyed by interned name, built once for every evaluator.
const util::SymbolMap<Builtin>& builtin_index() {
  static const util::SymbolMap<Builtin> index = [] {
    util::SymbolMap<Builtin> map;
    for (const Builtin& b : kBuiltins) {
      map.insert_or_assign(util::Symbol::intern(b.name), b);
    }
    return map;
  }();
  return index;
}

}  // namespace

const Builtin* find_builtin(util::Symbol name) {
  return builtin_index().find(name);
}

Evaluator::Evaluator() : builtins_(&builtin_index()) {}

EvalValue Evaluator::evaluate(const Expr& expr, EvalContext& ctx) const {
  if (const auto* lit = dynamic_cast<const LiteralExpr*>(&expr)) {
    switch (lit->kind) {
      case LiteralExpr::Kind::Bool: return EvalValue(lit->bool_value);
      case LiteralExpr::Kind::Number: return EvalValue(lit->number_value);
      case LiteralExpr::Kind::String: return EvalValue(lit->string_value);
      case LiteralExpr::Kind::Nil: return EvalValue::nil();
    }
  }
  if (const auto* name = dynamic_cast<const NameExpr*>(&expr)) {
    const util::Symbol sym = sym_of(*name);
    if (sym == wk().self) return EvalValue(ElementRef::of_system(ctx.self()));
    if (const EvalValue* bound = ctx.lookup(sym)) return *bound;
    // Unqualified property reference against the contextual element.
    if (const ElementRef* el = ctx.context_element()) {
      if (el->element && el->element->has_property(sym)) {
        return member_of_element(*el, sym, name->line);
      }
    }
    fail(name->line, "unbound name '" + name->name + "'");
  }
  if (const auto* member = dynamic_cast<const MemberExpr*>(&expr)) {
    return eval_member(*member, ctx);
  }
  if (const auto* call = dynamic_cast<const CallExpr*>(&expr)) {
    return eval_call(*call, ctx);
  }
  if (const auto* unary = dynamic_cast<const UnaryExpr*>(&expr)) {
    EvalValue v = evaluate(*unary->operand, ctx);
    if (unary->op == UnaryExpr::Op::Not) return EvalValue(!v.truthy());
    return EvalValue(-v.as_number());
  }
  if (const auto* binary = dynamic_cast<const BinaryExpr*>(&expr)) {
    return eval_binary(*binary, ctx);
  }
  if (const auto* select = dynamic_cast<const SelectExpr*>(&expr)) {
    return eval_select(*select, ctx);
  }
  if (const auto* quant = dynamic_cast<const QuantExpr*>(&expr)) {
    return eval_quant(*quant, ctx);
  }
  fail(expr.line, "unknown expression node");
}

bool Evaluator::evaluate_bool(const Expr& expr, EvalContext& ctx) const {
  return evaluate(expr, ctx).truthy();
}

EvalValue Evaluator::member_of_element(const ElementRef& ref,
                                       util::Symbol member, int line) const {
  using model::ElementKind;
  // System-level collections.
  if (ref.is_system()) {
    const model::System& sys = *ref.system;
    if (member == wk().components) {
      EvalValue::Set set;
      for (const model::Component* c : sys.components()) {
        set.push_back(EvalValue(ElementRef::of_component(sys, *c)));
      }
      return EvalValue(std::move(set));
    }
    if (member == wk().connectors) {
      EvalValue::Set set;
      for (const model::Connector* c : sys.connectors()) {
        set.push_back(EvalValue(ElementRef::of_connector(sys, *c)));
      }
      return EvalValue(std::move(set));
    }
    if (member == wk().name) return EvalValue(sys.name());
    fail(line, "system has no member '" + member.str() + "'");
  }

  const model::Element& el = *ref.element;
  if (member == wk().name) return EvalValue(el.name());
  if (member == wk().type) return EvalValue(el.type_name());

  if (ref.kind == ElementKind::Component) {
    const auto& comp = static_cast<const model::Component&>(el);
    if (member == wk().ports) {
      EvalValue::Set set;
      for (const model::Port* p : comp.ports()) {
        set.push_back(EvalValue(ElementRef::of_port(*ref.system, comp, *p)));
      }
      return EvalValue(std::move(set));
    }
    if (member == wk().representation) {
      if (!comp.has_representation()) return EvalValue::nil();
      return EvalValue(ElementRef::of_system(comp.representation_const()));
    }
  }
  if (ref.kind == ElementKind::Connector) {
    const auto& conn = static_cast<const model::Connector&>(el);
    if (member == wk().roles) {
      EvalValue::Set set;
      for (const model::Role* r : conn.roles()) {
        set.push_back(EvalValue(ElementRef::of_role(*ref.system, conn, *r)));
      }
      return EvalValue(std::move(set));
    }
  }

  // Property access.
  if (!el.has_property(member)) {
    fail(line, std::string(to_string(ref.kind)) + " '" + el.name() +
                   "' has no property or member '" + member.str() + "'");
  }
  return EvalValue(el.property(member));
}

EvalValue Evaluator::eval_member(const MemberExpr& m, EvalContext& ctx) const {
  EvalValue object = evaluate(*m.object, ctx);
  if (!object.is_element()) {
    fail(m.line, "member access '." + m.member + "' on non-element value " +
                     object.to_string());
  }
  return member_of_element(object.as_element(), sym_of(m), m.line);
}

EvalValue Evaluator::eval_call(const CallExpr& c, EvalContext& ctx) const {
  std::vector<EvalValue> args;
  args.reserve(c.args.size());

  // Method-style call: element.op(args) -> style operator dispatch.
  if (const auto* member = dynamic_cast<const MemberExpr*>(c.callee.get())) {
    EvalValue object = evaluate(*member->object, ctx);
    for (const ExprPtr& a : c.args) args.push_back(evaluate(*a, ctx));
    if (!object.is_element()) {
      fail(c.line, "method call on non-element value " + object.to_string());
    }
    const MethodFn* handler = ctx.method_handler();
    if (!handler) {
      fail(c.line, "no operator dispatch available for '" + member->member +
                       "' (method calls are only valid inside repair scripts)");
    }
    return (*handler)(object.as_element(), sym_of(*member), args, ctx);
  }

  const auto* name = dynamic_cast<const NameExpr*>(c.callee.get());
  if (!name) fail(c.line, "call of non-function expression");
  for (const ExprPtr& a : c.args) args.push_back(evaluate(*a, ctx));

  const util::Symbol callee = sym_of(*name);
  if (const ExprFn* fn = ctx.find_function(callee)) {
    return (*fn)(args, ctx);
  }
  if (const Builtin* builtin = builtins_->find(callee)) {
    check_arity(builtin->name, builtin->params, builtin->args, args.size());
    return builtin->fn(args, ctx);
  }
  fail(c.line, "unknown function '" + name->name + "'");
}

bool is_ordering(BinaryExpr::Op op) {
  using Op = BinaryExpr::Op;
  return op == Op::Lt || op == Op::Le || op == Op::Gt || op == Op::Ge;
}

bool compare_ordered(BinaryExpr::Op op, const EvalValue& lhs,
                     const EvalValue& rhs, int line) {
  using Op = BinaryExpr::Op;
  int cmp = 0;
  if (!lhs.scalar() || !rhs.scalar() ||
      !events::Value::compare(*lhs.scalar(), *rhs.scalar(), cmp)) {
    fail(line, "cannot order " + lhs.to_string() + " and " + rhs.to_string());
  }
  switch (op) {
    case Op::Lt: return cmp < 0;
    case Op::Le: return cmp <= 0;
    case Op::Gt: return cmp > 0;
    default: return cmp >= 0;
  }
}

EvalValue Evaluator::eval_binary(const BinaryExpr& b, EvalContext& ctx) const {
  using Op = BinaryExpr::Op;
  // Short-circuit logical operators.
  if (b.op == Op::And) {
    if (!evaluate(*b.lhs, ctx).truthy()) return EvalValue(false);
    return EvalValue(evaluate(*b.rhs, ctx).truthy());
  }
  if (b.op == Op::Or) {
    if (evaluate(*b.lhs, ctx).truthy()) return EvalValue(true);
    return EvalValue(evaluate(*b.rhs, ctx).truthy());
  }

  EvalValue lhs = evaluate(*b.lhs, ctx);
  EvalValue rhs = evaluate(*b.rhs, ctx);
  switch (b.op) {
    case Op::Eq: return EvalValue(lhs.equals(rhs));
    case Op::Ne: return EvalValue(!lhs.equals(rhs));
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge: return EvalValue(compare_ordered(b.op, lhs, rhs, b.line));
    case Op::Add:
      if (lhs.is_string() && rhs.is_string()) {
        return EvalValue(lhs.as_string() + rhs.as_string());
      }
      return EvalValue(lhs.as_number() + rhs.as_number());
    case Op::Sub: return EvalValue(lhs.as_number() - rhs.as_number());
    case Op::Mul: return EvalValue(lhs.as_number() * rhs.as_number());
    case Op::Div: {
      double d = rhs.as_number();
      if (d == 0.0) fail(b.line, "division by zero");
      return EvalValue(lhs.as_number() / d);
    }
    case Op::Mod: {
      double d = rhs.as_number();
      if (d == 0.0) fail(b.line, "modulo by zero");
      return EvalValue(std::fmod(lhs.as_number(), d));
    }
    default:
      fail(b.line, "unhandled binary operator");
  }
}

namespace {
bool binder_matches(const EvalValue& v, const std::string& type_name) {
  if (type_name.empty()) return true;
  if (!v.is_element() || !v.as_element().element) return false;
  return v.as_element().element->type_name() == type_name;
}
}  // namespace

EvalValue Evaluator::eval_select(const SelectExpr& s, EvalContext& ctx) const {
  EvalValue domain = evaluate(*s.domain, ctx);
  const util::Symbol binder =
      s.binder_sym.empty() ? util::Symbol::intern(s.binder) : s.binder_sym;
  EvalValue::Set out;
  for (const EvalValue& item : domain.as_set()) {
    if (!binder_matches(item, s.type_name)) continue;
    EvalContext scope = ctx.child();
    scope.bind(binder, item);
    if (evaluate(*s.predicate, scope).truthy()) {
      if (s.one) return item;
      out.push_back(item);
    }
  }
  if (s.one) return EvalValue::nil();
  return EvalValue(std::move(out));
}

EvalValue Evaluator::eval_quant(const QuantExpr& q, EvalContext& ctx) const {
  EvalValue domain = evaluate(*q.domain, ctx);
  const util::Symbol binder =
      q.binder_sym.empty() ? util::Symbol::intern(q.binder) : q.binder_sym;
  for (const EvalValue& item : domain.as_set()) {
    if (!binder_matches(item, q.type_name)) continue;
    EvalContext scope = ctx.child();
    scope.bind(binder, item);
    bool holds = evaluate(*q.predicate, scope).truthy();
    if (q.exists && holds) return EvalValue(true);
    if (!q.exists && !holds) return EvalValue(false);
  }
  return EvalValue(!q.exists);
}

}  // namespace arcadia::acme
