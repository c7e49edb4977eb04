#include "acme/analysis.hpp"

#include <algorithm>

#include "acme/flow.hpp"

namespace arcadia::acme::analysis {

namespace {

void report(std::vector<AnalysisIssue>& out, std::string rule,
            Severity severity, int line, int column, std::string message) {
  out.push_back(AnalysisIssue{std::move(rule), severity, line, column,
                              std::move(message)});
}

std::string join(const std::set<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

/// Desired repair direction per support property, derived from the
/// invariant's threshold form. The condition states what *should hold*;
/// a violation is its negation, so `p <= X` violated means p is too high
/// and the repair should drive p down (and/or X up when X is itself a
/// property). Disjunctions contribute each disjunct's directions (any
/// branch becoming true discharges the violation); anything else is
/// Unknown (every influence counts as potentially helpful).
void desired_directions(const Expr& cond, const Vocabulary& table,
                        const std::set<std::string>& bound,
                        std::map<std::string, EffectDirection>& out) {
  const auto* binary = dynamic_cast<const BinaryExpr*>(&cond);
  if (!binary) return;
  using Op = BinaryExpr::Op;
  if (binary->op == Op::Or || binary->op == Op::And) {
    desired_directions(*binary->lhs, table, bound, out);
    desired_directions(*binary->rhs, table, bound, out);
    return;
  }
  EffectDirection lhs_dir;
  switch (binary->op) {
    case Op::Le:
    case Op::Lt:
      lhs_dir = EffectDirection::Decrease;  // p too high -> push down
      break;
    case Op::Ge:
    case Op::Gt:
      lhs_dir = EffectDirection::Increase;  // p too low -> push up
      break;
    default:
      return;
  }
  const EffectDirection rhs_dir = lhs_dir == EffectDirection::Decrease
                                      ? EffectDirection::Increase
                                      : EffectDirection::Decrease;
  for (const std::string& p : free_properties(*binary->lhs, table, bound)) {
    merge_direction(out, p, lhs_dir);
  }
  for (const std::string& p : free_properties(*binary->rhs, table, bound)) {
    merge_direction(out, p, rhs_dir);
  }
}

bool helpful(EffectDirection have, EffectDirection want) {
  return have == EffectDirection::Unknown ||
         want == EffectDirection::Unknown || have == want;
}

struct StrategyProfile {
  const InvariantDecl* invariant = nullptr;
  const StrategyDecl* strategy = nullptr;
  std::set<std::string> support;
  std::map<std::string, EffectDirection> desired;
  /// Union of arm-tactic influences (conflicts collapse to Unknown).
  std::map<std::string, EffectDirection> influences;
};

}  // namespace

std::vector<std::string> rule_ids() {
  return {"conflicting-strategies", "dead-tactic",  "ineffective-tactic",
          "no-verdict",             "scenario-config",
          "uncosted-operator",      "ungauged-constraint",
          "unknown-operator-effect"};
}

std::vector<AnalysisIssue> analyze_script(const Script& script,
                                          const Vocabulary& table) {
  std::vector<AnalysisIssue> out;
  const ScriptEffects effects = infer_effects(script, table);

  // --- unknown-operator-effect (warning) ---------------------------------
  // Report each unknown call site once, from the *defining* tactic's
  // summary (transitively inlined copies would duplicate it).
  for (const TacticDecl& tactic : script.tactics) {
    const TacticEffects* fx = effects.find(tactic.name);
    if (!fx) continue;
    for (const OperatorUse& use : fx->operators) {
      if (use.tactic != tactic.name) continue;  // inlined from a callee
      if (table.find_operator(use.op)) continue;
      report(out, "unknown-operator-effect", Severity::Warning, use.line,
             use.column,
             "operator '" + use.op +
                 "' has no declared effect; its writes are invisible to "
                 "effect analysis");
    }
  }

  // --- no-verdict (error) -------------------------------------------------
  for (const StrategyDecl& strategy : script.strategies) {
    if (!strategy_always_concludes(strategy)) {
      report(out, "no-verdict", Severity::Error, strategy.line,
             strategy.column,
             "strategy '" + strategy.name +
                 "' has a path that ends without 'commit repair' or "
                 "'abort'");
    }
  }

  // --- per-invariant profiles --------------------------------------------
  std::vector<StrategyProfile> profiles;
  for (const InvariantDecl& inv : script.invariants) {
    if (inv.handler.empty()) continue;
    const StrategyDecl* strategy = script.find_strategy(inv.handler);
    if (!strategy) continue;  // checker reports this
    StrategyProfile profile;
    profile.invariant = &inv;
    profile.strategy = strategy;
    std::set<std::string> bound;
    if (!inv.name.empty()) bound.insert(inv.name);
    profile.support = free_properties(*inv.condition, table, bound);
    desired_directions(*inv.condition, table, bound, profile.desired);

    // --- ineffective-tactic (error) --------------------------------------
    for (const FirstSuccessArm& arm : first_success_arms(*strategy)) {
      if (arm.tactic.empty()) continue;
      const TacticEffects* fx = effects.find(arm.tactic);
      if (!fx) continue;  // undefined tactic: checker reports it
      for (const auto& [prop, dir] : fx->influences) {
        merge_direction(profile.influences, prop, dir);
      }
      bool can_help = false;
      for (const std::string& prop : profile.support) {
        auto inf = fx->influences.find(prop);
        if (inf == fx->influences.end()) continue;
        auto want = profile.desired.find(prop);
        const EffectDirection want_dir = want == profile.desired.end()
                                             ? EffectDirection::Unknown
                                             : want->second;
        if (helpful(inf->second, want_dir)) {
          can_help = true;
          break;
        }
      }
      if (!can_help) {
        const TacticDecl* decl = script.find_tactic(arm.tactic);
        report(out, "ineffective-tactic", Severity::Error,
               decl ? decl->line : arm.line, decl ? decl->column : arm.column,
               "tactic '" + arm.tactic + "' cannot discharge invariant '" +
                   render_expr(*inv.condition) +
                   "': none of its effects move a support property {" +
                   join(profile.support) + "} in a helpful direction");
      }
    }
    profiles.push_back(std::move(profile));
  }

  // --- dead-tactic (error) ------------------------------------------------
  for (const StrategyDecl& strategy : script.strategies) {
    const std::vector<FirstSuccessArm> arms = first_success_arms(strategy);
    for (std::size_t j = 1; j < arms.size(); ++j) {
      if (arms[j].tactic.empty()) continue;
      const TacticDecl* later = script.find_tactic(arms[j].tactic);
      if (!later) continue;
      const TacticGuard later_guard = extract_guard(*later);
      for (std::size_t i = 0; i < j; ++i) {
        if (arms[i].tactic.empty()) continue;
        const TacticDecl* earlier = script.find_tactic(arms[i].tactic);
        if (!earlier || !always_succeeds(*earlier)) continue;
        if (guard_implies(later_guard, extract_guard(*earlier))) {
          report(out, "dead-tactic", Severity::Error, arms[j].line,
                 arms[j].column,
                 "tactic '" + arms[j].tactic +
                     "' can never succeed here: whenever its guard holds, "
                     "earlier sibling '" + arms[i].tactic +
                     "' already succeeds");
          break;
        }
      }
    }
  }

  // --- conflicting-strategies (warning) ----------------------------------
  for (std::size_t a = 0; a < profiles.size(); ++a) {
    for (std::size_t b = a + 1; b < profiles.size(); ++b) {
      const StrategyProfile& pa = profiles[a];
      const StrategyProfile& pb = profiles[b];
      if (pa.strategy == pb.strategy) continue;
      // Only strategies watching overlapping state can oscillate: a
      // disjoint-support pair (latency repair vs utilization trim) tugging
      // replicationCount both ways is the designed equilibrium, not a bug.
      std::set<std::string> overlap;
      std::set_intersection(pa.support.begin(), pa.support.end(),
                            pb.support.begin(), pb.support.end(),
                            std::inserter(overlap, overlap.begin()));
      if (overlap.empty()) continue;
      for (const std::string& prop : overlap) {
        auto ia = pa.influences.find(prop);
        auto ib = pb.influences.find(prop);
        if (ia == pa.influences.end() || ib == pb.influences.end()) continue;
        if (ia->second == EffectDirection::Unknown ||
            ib->second == EffectDirection::Unknown ||
            ia->second == ib->second) {
          continue;
        }
        report(out, "conflicting-strategies", Severity::Warning,
               pb.strategy->line, pb.strategy->column,
               "strategies '" + pa.strategy->name + "' and '" +
                   pb.strategy->name + "' watch '" + prop +
                   "' and push it in opposite directions (" +
                   to_string(ia->second) + " vs " + to_string(ib->second) +
                   "): repairs may oscillate");
      }
    }
  }

  return out;
}

std::vector<AnalysisIssue> verify_deployment(const DeploymentView& view) {
  std::vector<AnalysisIssue> out;

  std::map<std::string, std::set<std::string>> fed;  // element -> props
  for (const GaugeFeed& feed : view.gauge_feeds) {
    fed[feed.element].insert(feed.property);
  }

  // --- ungauged-constraint (error) ---------------------------------------
  for (const ConstraintView& c : view.constraints) {
    if (c.reads.empty()) continue;  // structural condition; nothing to feed
    auto it = fed.find(c.element);
    bool any_fed = false;
    if (it != fed.end()) {
      for (const std::string& prop : c.reads) {
        if (it->second.count(prop) != 0) {
          any_fed = true;
          break;
        }
      }
    }
    if (!any_fed) {
      report(out, "ungauged-constraint", Severity::Error, c.line, c.column,
             "constraint '" + c.id + "' on '" + c.element +
                 "' reads {" + join(c.reads) +
                 "} but no gauge on that element produces any of them: it "
                 "can never trip");
    }
  }

  // --- uncosted-operator (error) -----------------------------------------
  std::set<std::string> reported;
  for (const OperatorUse& use : view.operators_used) {
    if (!reported.insert(use.op).second) continue;
    auto cost = view.operator_costs_s.find(use.op);
    if (cost == view.operator_costs_s.end() || cost->second <= 0.0) {
      report(out, "uncosted-operator", Severity::Error, use.line, use.column,
             "operator '" + use.op + "' (reachable via tactic '" +
                 use.tactic +
                 "') has no declared environment cost: plan estimates "
                 "silently default");
    }
  }

  return out;
}

bool op_within_effects(const model::OpRecord& record,
                       const TacticEffects& effects) {
  switch (record.kind) {
    case model::OpKind::SetProperty:
      return effects.writes.count(record.property) != 0;
    case model::OpKind::AddComponent:
    case model::OpKind::AddConnector:
    case model::OpKind::AddPort:
    case model::OpKind::AddRole:
      return effects.adds_element || effects.rewires;
    case model::OpKind::RemoveComponent:
    case model::OpKind::RemoveConnector:
    case model::OpKind::RemovePort:
    case model::OpKind::RemoveRole:
      return effects.removes_element || effects.rewires;
    case model::OpKind::Attach:
    case model::OpKind::Detach:
      return effects.rewires;
  }
  return false;
}

}  // namespace arcadia::acme::analysis
