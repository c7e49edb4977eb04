#include "acme/effects.hpp"

namespace arcadia::acme {

const char* to_string(EffectDirection d) {
  switch (d) {
    case EffectDirection::Increase: return "increase";
    case EffectDirection::Decrease: return "decrease";
    case EffectDirection::Unknown: return "unknown";
  }
  return "unknown";
}

void merge_direction(std::map<std::string, EffectDirection>& directions,
                     const std::string& prop, EffectDirection dir) {
  auto [it, fresh] = directions.emplace(prop, dir);
  if (!fresh && it->second != dir) it->second = EffectDirection::Unknown;
}

const OperatorEffect* Vocabulary::find_operator(const std::string& name) const {
  for (const OperatorEffect& op : operators) {
    if (op.name == name) return &op;
  }
  return nullptr;
}

const FunctionSig* Vocabulary::find_function(const std::string& name) const {
  for (const FunctionSig& fn : functions) {
    if (fn.name == name) return &fn;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Expression rendering (canonical, single line — used for guard comparison).

namespace {

const char* binary_op_text(BinaryExpr::Op op) {
  using Op = BinaryExpr::Op;
  switch (op) {
    case Op::Or: return "or";
    case Op::And: return "and";
    case Op::Eq: return "==";
    case Op::Ne: return "!=";
    case Op::Lt: return "<";
    case Op::Le: return "<=";
    case Op::Gt: return ">";
    case Op::Ge: return ">=";
    case Op::Add: return "+";
    case Op::Sub: return "-";
    case Op::Mul: return "*";
    case Op::Div: return "/";
    case Op::Mod: return "%";
  }
  return "?";
}

std::string trim_number(double value) {
  std::string s = std::to_string(value);
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

}  // namespace

std::string render_expr(const Expr& expr) {
  if (const auto* lit = dynamic_cast<const LiteralExpr*>(&expr)) {
    switch (lit->kind) {
      case LiteralExpr::Kind::Bool: return lit->bool_value ? "true" : "false";
      case LiteralExpr::Kind::Number: return trim_number(lit->number_value);
      case LiteralExpr::Kind::String: return "\"" + lit->string_value + "\"";
      case LiteralExpr::Kind::Nil: return "nil";
    }
  }
  if (const auto* name = dynamic_cast<const NameExpr*>(&expr)) {
    return name->name;
  }
  if (const auto* member = dynamic_cast<const MemberExpr*>(&expr)) {
    return render_expr(*member->object) + "." + member->member;
  }
  if (const auto* call = dynamic_cast<const CallExpr*>(&expr)) {
    std::string out = render_expr(*call->callee) + "(";
    for (std::size_t i = 0; i < call->args.size(); ++i) {
      if (i) out += ", ";
      out += render_expr(*call->args[i]);
    }
    return out + ")";
  }
  if (const auto* unary = dynamic_cast<const UnaryExpr*>(&expr)) {
    const char* op = unary->op == UnaryExpr::Op::Not ? "!" : "-";
    return std::string(op) + render_expr(*unary->operand);
  }
  if (const auto* binary = dynamic_cast<const BinaryExpr*>(&expr)) {
    return "(" + render_expr(*binary->lhs) + " " +
           binary_op_text(binary->op) + " " + render_expr(*binary->rhs) + ")";
  }
  if (const auto* sel = dynamic_cast<const SelectExpr*>(&expr)) {
    std::string out = sel->one ? "selectOne " : "select ";
    out += sel->binder;
    if (!sel->type_name.empty()) out += " : " + sel->type_name;
    out += " in " + render_expr(*sel->domain) + " | " +
           render_expr(*sel->predicate);
    return out;
  }
  if (const auto* quant = dynamic_cast<const QuantExpr*>(&expr)) {
    std::string out = quant->exists ? "exists " : "forall ";
    out += quant->binder;
    if (!quant->type_name.empty()) out += " : " + quant->type_name;
    out += " in " + render_expr(*quant->domain) + " | " +
           render_expr(*quant->predicate);
    return out;
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Free-property collection.

namespace {

/// Names that are structural navigation, not observed properties.
bool is_structural_member(const std::string& member) {
  return member == "name" || member == "type" || member == "Ports" ||
         member == "Roles" || member == "Components" ||
         member == "Connectors" || member == "Representation";
}

void collect_free(const Expr& expr, const Vocabulary& table,
                  std::set<std::string>& bound, std::set<std::string>& out) {
  if (const auto* name = dynamic_cast<const NameExpr*>(&expr)) {
    if (name->name == "self" || table.is_global(name->name)) return;
    if (bound.count(name->name) != 0) return;
    out.insert(name->name);
    return;
  }
  if (const auto* member = dynamic_cast<const MemberExpr*>(&expr)) {
    // `x.prop` reads prop regardless of what x is bound to; the object
    // side contributes navigation, not property reads.
    if (!is_structural_member(member->member)) out.insert(member->member);
    collect_free(*member->object, table, bound, out);
    return;
  }
  if (const auto* call = dynamic_cast<const CallExpr*>(&expr)) {
    // The callee of `x.op(...)` is a MemberExpr but names an operator or
    // function, not a property — only descend into the object and args.
    if (const auto* target =
            dynamic_cast<const MemberExpr*>(call->callee.get())) {
      collect_free(*target->object, table, bound, out);
    }
    for (const ExprPtr& a : call->args) collect_free(*a, table, bound, out);
    return;
  }
  if (const auto* unary = dynamic_cast<const UnaryExpr*>(&expr)) {
    collect_free(*unary->operand, table, bound, out);
    return;
  }
  if (const auto* binary = dynamic_cast<const BinaryExpr*>(&expr)) {
    collect_free(*binary->lhs, table, bound, out);
    collect_free(*binary->rhs, table, bound, out);
    return;
  }
  if (const auto* sel = dynamic_cast<const SelectExpr*>(&expr)) {
    collect_free(*sel->domain, table, bound, out);
    const bool inserted = bound.insert(sel->binder).second;
    collect_free(*sel->predicate, table, bound, out);
    if (inserted) bound.erase(sel->binder);
    return;
  }
  if (const auto* quant = dynamic_cast<const QuantExpr*>(&expr)) {
    collect_free(*quant->domain, table, bound, out);
    const bool inserted = bound.insert(quant->binder).second;
    collect_free(*quant->predicate, table, bound, out);
    if (inserted) bound.erase(quant->binder);
    return;
  }
  // Literals: nothing.
}

}  // namespace

std::set<std::string> free_properties(const Expr& expr,
                                      const Vocabulary& table,
                                      const std::set<std::string>& bound) {
  std::set<std::string> names = bound;
  std::set<std::string> out;
  collect_free(expr, table, names, out);
  // A bound binder name (the invariant's violation variable) is not a
  // property; a bare bound name never reaches `out`, but `r.load` style
  // member reads through it are kept — which is what we want.
  return out;
}

// ---------------------------------------------------------------------------
// Effect inference.

namespace {

class EffectWalker {
 public:
  EffectWalker(const Script& script, const Vocabulary& table)
      : script_(script), table_(table) {}

  TacticEffects summarize(const TacticDecl& tactic) {
    TacticEffects fx;
    fx.name = tactic.name;
    fx.line = tactic.line;
    fx.column = tactic.column;
    std::set<std::string> bound;
    for (const Param& p : tactic.params) bound.insert(p.name);
    walk_stmt(*tactic.body, tactic.name, bound, fx);
    return fx;
  }

 private:
  void note_reads(const Expr& expr, const std::set<std::string>& bound,
                  TacticEffects& fx) {
    std::set<std::string> names = bound;
    std::set<std::string> reads;
    collect_free(expr, table_, names, reads);
    fx.reads.insert(reads.begin(), reads.end());
  }

  /// Folds an operator's or a callee tactic's footprint into `fx`.
  template <class Footprint>
  static void fold(const Footprint& src, TacticEffects& fx) {
    fx.writes.insert(src.writes.begin(), src.writes.end());
    for (const auto& [prop, dir] : src.influences) {
      merge_direction(fx.influences, prop, dir);
    }
    fx.adds_element = fx.adds_element || src.adds_element;
    fx.removes_element = fx.removes_element || src.removes_element;
    fx.rewires = fx.rewires || src.rewires;
  }

  void apply_operator(const OperatorEffect& op, const CallExpr& call,
                      const std::string& tactic, TacticEffects& fx) {
    fold(op, fx);
    fx.operators.push_back(OperatorUse{op.name, tactic, call.line,
                                       call.column});
  }

  void walk_expr(const Expr& expr, const std::string& tactic,
                 const std::set<std::string>& bound, TacticEffects& fx) {
    note_reads(expr, bound, fx);
    find_calls(expr, tactic, bound, fx);
  }

  /// Recursively locate operator / tactic calls inside an expression.
  void find_calls(const Expr& expr, const std::string& tactic,
                  const std::set<std::string>& bound, TacticEffects& fx) {
    if (const auto* call = dynamic_cast<const CallExpr*>(&expr)) {
      if (const auto* target =
              dynamic_cast<const MemberExpr*>(call->callee.get())) {
        if (const OperatorEffect* op = table_.find_operator(target->member)) {
          apply_operator(*op, *call, tactic, fx);
        } else if (!is_structural_member(target->member)) {
          // Unknown operator — record the call site with an empty effect
          // so analysis can warn about it.
          fx.operators.push_back(OperatorUse{target->member, tactic,
                                             call->line, call->column});
        }
        find_calls(*target->object, tactic, bound, fx);
      } else if (const auto* callee =
                     dynamic_cast<const NameExpr*>(call->callee.get())) {
        if (const TacticDecl* sub = script_.find_tactic(callee->name)) {
          fx.calls.insert(sub->name);
          inline_callee(*sub, tactic, fx);
        }
      }
      for (const ExprPtr& a : call->args) find_calls(*a, tactic, bound, fx);
      return;
    }
    if (const auto* member = dynamic_cast<const MemberExpr*>(&expr)) {
      find_calls(*member->object, tactic, bound, fx);
      return;
    }
    if (const auto* unary = dynamic_cast<const UnaryExpr*>(&expr)) {
      find_calls(*unary->operand, tactic, bound, fx);
      return;
    }
    if (const auto* binary = dynamic_cast<const BinaryExpr*>(&expr)) {
      find_calls(*binary->lhs, tactic, bound, fx);
      find_calls(*binary->rhs, tactic, bound, fx);
      return;
    }
    if (const auto* sel = dynamic_cast<const SelectExpr*>(&expr)) {
      find_calls(*sel->domain, tactic, bound, fx);
      find_calls(*sel->predicate, tactic, bound, fx);
      return;
    }
    if (const auto* quant = dynamic_cast<const QuantExpr*>(&expr)) {
      find_calls(*quant->domain, tactic, bound, fx);
      find_calls(*quant->predicate, tactic, bound, fx);
      return;
    }
  }

  /// Transitive closure: fold a callee tactic's full summary into the
  /// caller (cycle-guarded; the script language has no recursion, but a
  /// hand-built AST might).
  void inline_callee(const TacticDecl& callee, const std::string& caller,
                     TacticEffects& fx) {
    if (!in_progress_.insert(callee.name).second) return;
    TacticEffects sub = summarize(callee);
    in_progress_.erase(callee.name);
    fx.reads.insert(sub.reads.begin(), sub.reads.end());
    fold(sub, fx);
    for (OperatorUse use : sub.operators) {
      use.tactic = caller;
      fx.operators.push_back(use);
    }
  }

  void walk_stmt(const Stmt& stmt, const std::string& tactic,
                 std::set<std::string> bound, TacticEffects& fx) {
    if (const auto* block = dynamic_cast<const BlockStmt*>(&stmt)) {
      for (const StmtPtr& s : block->statements) {
        if (const auto* let = dynamic_cast<const LetStmt*>(s.get())) {
          walk_expr(*let->value, tactic, bound, fx);
          bound.insert(let->name);
          continue;
        }
        walk_stmt(*s, tactic, bound, fx);
      }
      return;
    }
    if (const auto* let = dynamic_cast<const LetStmt*>(&stmt)) {
      walk_expr(*let->value, tactic, bound, fx);
      return;
    }
    if (const auto* ifs = dynamic_cast<const IfStmt*>(&stmt)) {
      walk_expr(*ifs->condition, tactic, bound, fx);
      walk_stmt(*ifs->then_branch, tactic, bound, fx);
      if (ifs->else_branch) walk_stmt(*ifs->else_branch, tactic, bound, fx);
      return;
    }
    if (const auto* fe = dynamic_cast<const ForeachStmt*>(&stmt)) {
      walk_expr(*fe->domain, tactic, bound, fx);
      bound.insert(fe->binder);
      walk_stmt(*fe->body, tactic, bound, fx);
      return;
    }
    if (const auto* ret = dynamic_cast<const ReturnStmt*>(&stmt)) {
      if (ret->value) walk_expr(*ret->value, tactic, bound, fx);
      return;
    }
    if (const auto* es = dynamic_cast<const ExprStmt*>(&stmt)) {
      walk_expr(*es->expr, tactic, bound, fx);
      return;
    }
    // Commit/Abort: no effect contribution.
  }

  const Script& script_;
  const Vocabulary& table_;
  std::set<std::string> in_progress_;
};

}  // namespace

ScriptEffects infer_effects(const Script& script, const Vocabulary& table) {
  ScriptEffects out;
  EffectWalker walker(script, table);
  for (const TacticDecl& tactic : script.tactics) {
    out.tactics.emplace(tactic.name, walker.summarize(tactic));
  }
  return out;
}

}  // namespace arcadia::acme
