#include "repair/constraint.hpp"

#include <set>

#include "acme/expr_parser.hpp"
#include "model/revision.hpp"

namespace arcadia::repair {

namespace {

void collect_free_names(const acme::Expr& expr, std::set<std::string>& out) {
  using namespace acme;
  if (const auto* name = dynamic_cast<const NameExpr*>(&expr)) {
    if (name->name != "self") out.insert(name->name);
    return;
  }
  if (const auto* member = dynamic_cast<const MemberExpr*>(&expr)) {
    collect_free_names(*member->object, out);
    return;
  }
  if (const auto* call = dynamic_cast<const CallExpr*>(&expr)) {
    // The callee name is a function, not a property; only walk arguments.
    for (const auto& a : call->args) collect_free_names(*a, out);
    return;
  }
  if (const auto* unary = dynamic_cast<const UnaryExpr*>(&expr)) {
    collect_free_names(*unary->operand, out);
    return;
  }
  if (const auto* binary = dynamic_cast<const BinaryExpr*>(&expr)) {
    collect_free_names(*binary->lhs, out);
    collect_free_names(*binary->rhs, out);
    return;
  }
  if (const auto* sel = dynamic_cast<const acme::SelectExpr*>(&expr)) {
    collect_free_names(*sel->domain, out);
    std::set<std::string> inner;
    collect_free_names(*sel->predicate, inner);
    inner.erase(sel->binder);
    out.insert(inner.begin(), inner.end());
    return;
  }
  if (const auto* q = dynamic_cast<const acme::QuantExpr*>(&expr)) {
    collect_free_names(*q->domain, out);
    std::set<std::string> inner;
    collect_free_names(*q->predicate, inner);
    inner.erase(q->binder);
    out.insert(inner.begin(), inner.end());
    return;
  }
}

}  // namespace

std::vector<std::string> free_names(const acme::Expr& expr) {
  std::set<std::string> set;
  collect_free_names(expr, set);
  return {set.begin(), set.end()};
}

bool expression_is_local(const acme::Expr& expr) {
  using namespace acme;
  if (dynamic_cast<const LiteralExpr*>(&expr)) return true;
  if (dynamic_cast<const NameExpr*>(&expr)) {
    // Bare names resolve to globals or the context element's properties;
    // even `self` alone carries no other element's state — reading through
    // it requires the member/call/comprehension nodes rejected below.
    return true;
  }
  if (const auto* unary = dynamic_cast<const UnaryExpr*>(&expr)) {
    return expression_is_local(*unary->operand);
  }
  if (const auto* binary = dynamic_cast<const BinaryExpr*>(&expr)) {
    return expression_is_local(*binary->lhs) &&
           expression_is_local(*binary->rhs);
  }
  // MemberExpr, CallExpr, SelectExpr, QuantExpr can all reach elements
  // other than the one the constraint is attached to.
  return false;
}

ConstraintChecker::ConstraintChecker(const model::System& system)
    : system_(system), globals_(system) {}

void ConstraintChecker::bind_global(const std::string& name,
                                    acme::EvalValue value) {
  globals_.bind(util::Symbol::intern(name), std::move(value));
  ++globals_stamp_;
}

void ConstraintChecker::set_element_suspect(util::Symbol element,
                                            bool suspect) {
  if (suspect) {
    suspect_.insert_or_assign(element, 1);
  } else {
    suspect_.erase(element);
  }
}

bool ConstraintChecker::element_suspect(util::Symbol element) const {
  return suspect_.contains(element);
}

void ConstraintChecker::add_constraint(const std::string& id,
                                       const std::string& element,
                                       const std::string& armani_source,
                                       const std::string& handler) {
  Constraint c;
  c.id = id;
  c.element = element;
  c.condition = std::shared_ptr<acme::Expr>(acme::parse_expression(armani_source));
  c.handler = handler;
  c.source = armani_source;
  c.id_sym = util::Symbol::intern(c.id);
  c.element_sym = util::Symbol::intern(c.element);
  constraints_.push_back(std::move(c));
}

std::size_t ConstraintChecker::instantiate(const acme::Script& script) {
  std::size_t created = 0;
  for (const acme::InvariantDecl& inv : script.invariants) {
    // Which properties must an element carry for this invariant to apply?
    std::vector<std::string> needed;
    for (const std::string& name : free_names(*inv.condition)) {
      if (!globals_.lookup(name)) needed.push_back(name);
    }
    for (const model::Component* comp : system_.components()) {
      bool applies = !needed.empty();
      for (const std::string& prop : needed) {
        if (!comp->has_property(prop)) {
          applies = false;
          break;
        }
      }
      if (!applies) continue;
      Constraint c;
      c.id = (inv.name.empty() ? inv.handler : inv.name) + ":" + comp->name();
      c.element = comp->name();
      c.condition = inv.condition;  // shared across instances
      c.handler = inv.handler;
      c.source = "<script invariant line " + std::to_string(inv.line) + ">";
      c.id_sym = util::Symbol::intern(c.id);
      c.element_sym = comp->name_symbol();
      constraints_.push_back(std::move(c));
      ++created;
    }
  }
  return created;
}

bool ConstraintChecker::eval_constraint(const Constraint& c,
                                        double* observed) const {
  // A child scope reads the globals through its parent link: nothing is
  // copied and nothing allocated per evaluation.
  acme::EvalContext ctx = globals_.child();
  if (!c.element_sym.empty() && system_.has_component(c.element_sym)) {
    ctx.set_context_element(acme::ElementRef::of_component(
        system_, system_.component(c.element_sym)));
  }
  // Threshold form (an ordering comparison at the root): each operand is
  // evaluated once, and the left-hand value is what the worst-first policy
  // ranks violations by. Any other condition observes 0.
  const auto* cmp = dynamic_cast<const acme::BinaryExpr*>(c.condition.get());
  if (cmp && acme::is_ordering(cmp->op)) {
    const acme::EvalValue lhs = evaluator_.evaluate(*cmp->lhs, ctx);
    const acme::EvalValue rhs = evaluator_.evaluate(*cmp->rhs, ctx);
    const bool ok = acme::compare_ordered(cmp->op, lhs, rhs, cmp->line);
    if (observed) *observed = lhs.is_number() ? lhs.as_number() : 0.0;
    return ok;
  }
  const bool ok = evaluator_.evaluate_bool(*c.condition, ctx);
  if (observed) *observed = 0.0;
  return ok;
}

void ConstraintChecker::ensure_memos() const {
  while (memos_.size() < constraints_.size()) {
    const Constraint& c = constraints_[memos_.size()];
    Memo memo;
    memo.local = expression_is_local(*c.condition);
    memos_.push_back(memo);
  }
}

std::vector<Violation> ConstraintChecker::check() const {
  ensure_memos();

  const std::uint64_t structure_now = model::structure_clock();
  const std::uint64_t property_now = model::property_clock();
  const bool full = structure_now != structure_seen_ ||
                    globals_stamp_ != globals_seen_;
  if (full) ++check_stats_.full_sweeps;

  std::vector<Violation> out;
  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    const Constraint& c = constraints_[i];
    Memo& memo = memos_[i];
    if (!c.element_sym.empty() && !system_.has_component(c.element_sym)) {
      memo.valid = false;
      continue;
    }
    // Verdict hold: the element's monitoring evidence is suspect (stale
    // gauge channels), so neither assert a violation nor overwrite the
    // memo — the last trusted evaluation resumes when the channel clears.
    if (!c.element_sym.empty() && !suspect_.empty() &&
        suspect_.contains(c.element_sym)) {
      ++check_stats_.holds;
      continue;
    }
    const model::Component* element =
        c.element_sym.empty() ? nullptr : &system_.component(c.element_sym);

    bool reuse = memo.valid && !full;
    if (reuse) {
      if (memo.local && element) {
        // Exact match, not <=: a transaction rollback rewinds an element's
        // stamp below what a mid-transaction sweep may have memoised, and
        // that memo (of the discarded value) must not be reused.
        reuse = element->property_stamp() == memo.element_stamp;
      } else {
        // Non-local (or element-less): any property write in the process
        // could have changed the verdict.
        reuse = property_now == property_seen_;
      }
    }

    if (reuse) {
      ++check_stats_.cache_hits;
    } else {
      memo.satisfied = eval_constraint(c, &memo.observed);
      memo.element_stamp = element ? element->property_stamp() : 0;
      memo.valid = true;
      ++check_stats_.evaluations;
    }
    if (!memo.satisfied) {
      out.push_back(Violation{&c, c.element, memo.observed});
    }
  }

  structure_seen_ = structure_now;
  property_seen_ = property_now;
  globals_seen_ = globals_stamp_;
  return out;
}

bool ConstraintChecker::satisfied(const std::string& id) const {
  for (const Constraint& c : constraints_) {
    if (c.id == id) return eval_constraint(c, nullptr);
  }
  throw ModelError("unknown constraint '" + id + "'");
}

}  // namespace arcadia::repair
