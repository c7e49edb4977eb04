#include "acme/checker.hpp"

#include "acme/evaluator.hpp"

namespace arcadia::acme {

namespace {

std::string property_type_name(model::PropertyType type) {
  switch (type) {
    case model::PropertyType::Bool: return "boolean";
    case model::PropertyType::Int:
    case model::PropertyType::Double: return "number";
    case model::PropertyType::String: return "string";
    case model::PropertyType::Any: return "";
  }
  return "";
}

void issue(std::vector<CheckIssue>& out, int line, int column,
           std::string message) {
  out.push_back(
      CheckIssue{line, column, Severity::Error, std::move(message)});
}

}  // namespace

ScriptChecker::ScriptChecker(const model::Style& style,
                             const Vocabulary& vocabulary)
    : style_(style), vocabulary_(vocabulary) {}

const std::string* ScriptChecker::lookup(const std::vector<Scope>& scopes,
                                         const std::string& name) const {
  for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
    auto found = it->names.find(name);
    if (found != it->names.end()) return &found->second;
  }
  return nullptr;
}

std::string ScriptChecker::member_type(const std::string& object_type,
                                       const std::string& member, int line,
                                       int column,
                                       std::vector<CheckIssue>& out) const {
  if (object_type.empty() || object_type == "nil") return "";
  if (object_type == "System") {
    if (member == "Components") return "set{}";
    if (member == "Connectors") return "set{}";
    if (member == "name") return "string";
    issue(out, line, column, "system has no member '" + member + "'");
    return "";
  }
  if (member == "name" || member == "type") return "string";

  const model::ElementTypeDef* def = style_.find(object_type);
  if (!def) return "";  // not a style type we know; stay quiet
  if (def->kind == model::ElementKind::Component) {
    if (member == "Ports") return "set{}";
    if (member == "Representation") return "System";
  }
  if (def->kind == model::ElementKind::Connector && member == "Roles") {
    return "set{}";
  }
  if (const model::PropertySpec* prop = def->find_prop(member)) {
    return property_type_name(prop->type);
  }
  issue(out, line, column, "type '" + object_type +
                               "' declares no property '" + member +
                               "' (style " + style_.name() + ")");
  return "";
}

std::string ScriptChecker::infer(const Expr& expr, std::vector<Scope>& scopes,
                                 const std::string& context_type,
                                 std::vector<CheckIssue>& out) {
  if (const auto* lit = dynamic_cast<const LiteralExpr*>(&expr)) {
    switch (lit->kind) {
      case LiteralExpr::Kind::Bool: return "boolean";
      case LiteralExpr::Kind::Number: return "number";
      case LiteralExpr::Kind::String: return "string";
      case LiteralExpr::Kind::Nil: return "nil";
    }
  }
  if (const auto* name = dynamic_cast<const NameExpr*>(&expr)) {
    if (name->name == "self") return "System";
    if (const std::string* type = lookup(scopes, name->name)) return *type;
    if (vocabulary_.is_global(name->name)) return "number";
    // Unqualified property reference against the context element.
    if (!context_type.empty()) {
      if (const model::ElementTypeDef* def = style_.find(context_type)) {
        if (const model::PropertySpec* prop = def->find_prop(name->name)) {
          return property_type_name(prop->type);
        }
      }
    }
    if (!lenient_names_) {
      issue(out, name->line, name->column,
            "unbound name '" + name->name +
                "' (not a parameter, let, global, or context property)");
    }
    return "";
  }
  if (const auto* member = dynamic_cast<const MemberExpr*>(&expr)) {
    std::string object = infer(*member->object, scopes, context_type, out);
    return member_type(object, member->member, member->line, member->column,
                       out);
  }
  if (const auto* call = dynamic_cast<const CallExpr*>(&expr)) {
    // Method-style: element.op(args).
    if (const auto* target = dynamic_cast<const MemberExpr*>(call->callee.get())) {
      std::string object = infer(*target->object, scopes, context_type, out);
      for (const ExprPtr& a : call->args) infer(*a, scopes, context_type, out);
      const OperatorEffect* op = vocabulary_.find_operator(target->member);
      if (!op) {
        issue(out, call->line, call->column,
              "unknown style operator '" + target->member + "'");
        return "";
      }
      if (!op->target_type.empty() && !object.empty() &&
          object != op->target_type) {
        issue(out, call->line, call->column, "operator '" + target->member +
                                   "' applies to " + op->target_type +
                                   ", not " + object);
      }
      if (call->args.size() != op->args) {
        issue(out, call->line, call->column,
              "operator '" + target->member + "' takes " +
                  std::to_string(op->args) + " argument(s), got " +
                  std::to_string(call->args.size()));
      }
      return "boolean";  // operators report whether they acted
    }
    const auto* callee = dynamic_cast<const NameExpr*>(call->callee.get());
    if (!callee) {
      issue(out, call->line, call->column, "call of a non-function expression");
      return "";
    }
    for (const ExprPtr& a : call->args) infer(*a, scopes, context_type, out);
    // Tactic call?
    if (script_) {
      if (const TacticDecl* tactic = script_->find_tactic(callee->name)) {
        if (call->args.size() != tactic->params.size()) {
          issue(out, call->line, call->column,
                "tactic '" + callee->name + "' takes " +
                    std::to_string(tactic->params.size()) +
                    " argument(s), got " + std::to_string(call->args.size()));
        }
        return tactic->return_type.empty() ? "" : tactic->return_type;
      }
    }
    const FunctionSig* fn = vocabulary_.find_function(callee->name);
    const Builtin* builtin =
        fn ? nullptr : find_builtin(util::Symbol::intern(callee->name));
    if (!fn && !builtin) {
      issue(out, call->line, call->column, "unknown function '" + callee->name + "'");
      return "";
    }
    const std::size_t arity = fn ? fn->args : builtin->args;
    if (call->args.size() != arity) {
      issue(out, call->line, call->column,
            "function '" + callee->name + "' takes " + std::to_string(arity) +
                " argument(s), got " + std::to_string(call->args.size()));
    }
    return fn ? fn->result_type : builtin->result_type;
  }
  if (const auto* unary = dynamic_cast<const UnaryExpr*>(&expr)) {
    std::string operand = infer(*unary->operand, scopes, context_type, out);
    if (unary->op == UnaryExpr::Op::Not) {
      if (!operand.empty() && operand != "boolean") {
        issue(out, unary->line, unary->column, "'!' applied to " + operand);
      }
      return "boolean";
    }
    if (!operand.empty() && operand != "number") {
      issue(out, unary->line, unary->column, "unary '-' applied to " + operand);
    }
    return "number";
  }
  if (const auto* binary = dynamic_cast<const BinaryExpr*>(&expr)) {
    using Op = BinaryExpr::Op;
    std::string lhs = infer(*binary->lhs, scopes, context_type, out);
    std::string rhs = infer(*binary->rhs, scopes, context_type, out);
    switch (binary->op) {
      case Op::And:
      case Op::Or:
        for (const auto& [side, type] :
             {std::make_pair("left", lhs), std::make_pair("right", rhs)}) {
          if (!type.empty() && type != "boolean") {
            issue(out, binary->line, binary->column,
                  std::string("logical operator's ") + side + " side is " +
                      type + ", not boolean");
          }
        }
        return "boolean";
      case Op::Eq:
      case Op::Ne:
        return "boolean";
      case Op::Lt:
      case Op::Le:
      case Op::Gt:
      case Op::Ge:
        for (const std::string& type : {lhs, rhs}) {
          if (!type.empty() && type != "number" && type != "string") {
            issue(out, binary->line, binary->column, "ordering comparison on " + type);
          }
        }
        return "boolean";
      case Op::Add:
        if (lhs == "string" && rhs == "string") return "string";
        [[fallthrough]];
      default:
        for (const std::string& type : {lhs, rhs}) {
          if (!type.empty() && type != "number") {
            issue(out, binary->line, binary->column, "arithmetic on " + type);
          }
        }
        return "number";
    }
  }
  if (const auto* sel = dynamic_cast<const SelectExpr*>(&expr)) {
    std::string domain = infer(*sel->domain, scopes, context_type, out);
    if (!domain.empty() && !is_set(domain) && domain != "System") {
      issue(out, sel->line, sel->column, "select domain is " + domain + ", not a set");
    }
    if (!sel->type_name.empty() && !style_.find(sel->type_name)) {
      issue(out, sel->line, sel->column,
            "unknown style type '" + sel->type_name + "' in select binder");
    }
    scopes.push_back({});
    scopes.back().names[sel->binder] = sel->type_name;
    std::string pred = infer(*sel->predicate, scopes, context_type, out);
    if (!pred.empty() && pred != "boolean") {
      issue(out, sel->line, sel->column, "select predicate is " + pred + ", not boolean");
    }
    scopes.pop_back();
    if (sel->one) return sel->type_name;
    return sel->type_name.empty() ? "set{}" : "set{" + sel->type_name + "}";
  }
  if (const auto* quant = dynamic_cast<const QuantExpr*>(&expr)) {
    std::string domain = infer(*quant->domain, scopes, context_type, out);
    if (!domain.empty() && !is_set(domain)) {
      issue(out, quant->line, quant->column, "quantifier domain is " + domain + ", not a set");
    }
    if (!quant->type_name.empty() && !style_.find(quant->type_name)) {
      issue(out, quant->line, quant->column,
            "unknown style type '" + quant->type_name + "' in quantifier");
    }
    scopes.push_back({});
    scopes.back().names[quant->binder] = quant->type_name;
    std::string pred = infer(*quant->predicate, scopes, context_type, out);
    if (!pred.empty() && pred != "boolean") {
      issue(out, quant->line, quant->column,
            "quantifier predicate is " + pred + ", not boolean");
    }
    scopes.pop_back();
    return "boolean";
  }
  return "";
}

void ScriptChecker::check_stmt(const Stmt& stmt, std::vector<Scope>& scopes,
                               const std::string& context_type,
                               bool in_strategy,
                               std::vector<CheckIssue>& out) {
  if (const auto* block = dynamic_cast<const BlockStmt*>(&stmt)) {
    scopes.push_back({});
    for (const StmtPtr& s : block->statements) {
      check_stmt(*s, scopes, context_type, in_strategy, out);
    }
    scopes.pop_back();
    return;
  }
  if (const auto* let = dynamic_cast<const LetStmt*>(&stmt)) {
    std::string inferred = infer(*let->value, scopes, context_type, out);
    std::string declared = let->type_annotation;
    if (!declared.empty() && !is_set(declared) && declared != "boolean" &&
        declared != "number" && declared != "string" &&
        !style_.find(declared)) {
      issue(out, let->line, let->column,
            "unknown type '" + declared + "' in let annotation");
    }
    // The declared type wins when present (nil-able bindings are common).
    scopes.back().names[let->name] = declared.empty() ? inferred : declared;
    return;
  }
  if (const auto* ifs = dynamic_cast<const IfStmt*>(&stmt)) {
    std::string cond = infer(*ifs->condition, scopes, context_type, out);
    if (!cond.empty() && cond != "boolean") {
      issue(out, ifs->line, ifs->column, "if condition is " + cond + ", not boolean");
    }
    check_stmt(*ifs->then_branch, scopes, context_type, in_strategy, out);
    if (ifs->else_branch) {
      check_stmt(*ifs->else_branch, scopes, context_type, in_strategy, out);
    }
    return;
  }
  if (const auto* fe = dynamic_cast<const ForeachStmt*>(&stmt)) {
    std::string domain = infer(*fe->domain, scopes, context_type, out);
    if (!domain.empty() && !is_set(domain)) {
      issue(out, fe->line, fe->column, "foreach domain is " + domain + ", not a set");
    }
    scopes.push_back({});
    scopes.back().names[fe->binder] = set_element(domain);
    check_stmt(*fe->body, scopes, context_type, in_strategy, out);
    scopes.pop_back();
    return;
  }
  if (const auto* ret = dynamic_cast<const ReturnStmt*>(&stmt)) {
    if (ret->value) infer(*ret->value, scopes, context_type, out);
    if (in_strategy) {
      issue(out, ret->line, ret->column,
            "'return' inside a strategy (strategies end with commit/abort)");
    }
    return;
  }
  if (dynamic_cast<const CommitStmt*>(&stmt)) {
    if (!in_strategy) {
      issue(out, stmt.line, stmt.column, "'commit repair' is only valid inside a strategy");
    }
    return;
  }
  if (dynamic_cast<const AbortStmt*>(&stmt)) {
    return;  // valid anywhere
  }
  if (const auto* es = dynamic_cast<const ExprStmt*>(&stmt)) {
    infer(*es->expr, scopes, context_type, out);
    return;
  }
}

std::vector<CheckIssue> ScriptChecker::check_script(const Script& script) {
  std::vector<CheckIssue> out;
  script_ = &script;

  for (const InvariantDecl& inv : script.invariants) {
    std::vector<Scope> scopes(1);
    if (!inv.name.empty()) scopes.back().names[inv.name] = "";
    lenient_names_ = true;
    std::string type = infer(*inv.condition, scopes, /*context_type=*/"", out);
    lenient_names_ = false;
    // Invariant conditions mention context properties we cannot resolve
    // statically (the element is chosen at instantiation); only flag a
    // resolved non-boolean type.
    if (!type.empty() && type != "boolean") {
      issue(out, inv.line, inv.column, "invariant condition is " + type + ", not boolean");
    }
    if (!inv.handler.empty() && !script.find_strategy(inv.handler)) {
      issue(out, inv.line, inv.column,
            "invariant handler '" + inv.handler + "' is not a strategy");
    }
    if (const StrategyDecl* handler = script.find_strategy(inv.handler)) {
      if (handler->params.size() != inv.args.size()) {
        issue(out, inv.line, inv.column,
              "handler '" + inv.handler + "' takes " +
                  std::to_string(handler->params.size()) +
                  " argument(s), invariant passes " +
                  std::to_string(inv.args.size()));
      }
    }
  }

  auto check_body = [&](const std::vector<Param>& params,
                        const BlockStmt& body, bool in_strategy) {
    std::vector<Scope> scopes(1);
    std::string context_type;
    for (const Param& p : params) {
      scopes.back().names[p.name] = p.type_annotation;
      if (!p.type_annotation.empty() && !is_set(p.type_annotation) &&
          !style_.find(p.type_annotation)) {
        issue(out, body.line, body.column,
              "unknown style type '" + p.type_annotation + "' in parameter '" +
                  p.name + "'");
      }
      if (context_type.empty()) context_type = p.type_annotation;
    }
    // Unqualified names inside a body may refer to properties of the first
    // (element-typed) parameter — matching interpreter behaviour where the
    // violating element is contextual.
    for (const StmtPtr& s : body.statements) {
      check_stmt(*s, scopes, context_type, in_strategy, out);
    }
  };

  for (const StrategyDecl& strategy : script.strategies) {
    check_body(strategy.params, *strategy.body, /*in_strategy=*/true);
  }
  for (const TacticDecl& tactic : script.tactics) {
    check_body(tactic.params, *tactic.body, /*in_strategy=*/false);
  }
  script_ = nullptr;
  return out;
}

std::vector<CheckIssue> ScriptChecker::check_expression(
    const Expr& expr, const std::string& context_type) {
  std::vector<CheckIssue> out;
  std::vector<Scope> scopes(1);
  infer(expr, scopes, context_type, out);
  return out;
}

}  // namespace arcadia::acme
