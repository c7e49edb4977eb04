#include "repair/plan_optimizer.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace arcadia::repair {

namespace {

bool is_move(const PlanStep& step) {
  return step.kind == PlanStep::Kind::RuntimeOps &&
         step.op_class == PlanStep::OpClass::Move;
}

/// Remove the steps marked in `drop`, remapping dependencies. A dependency
/// on a dropped step is replaced by that step's own dependencies
/// (transitively), preserving every ordering constraint that flowed
/// through it.
void drop_steps(AdaptationPlan& plan, const std::vector<bool>& drop) {
  const std::size_t n = plan.steps.size();
  // Expand deps bottom-up: deps only point at lower indices, so by the
  // time step i is expanded every dropped dep already routes around its
  // own dropped deps.
  std::vector<std::vector<std::size_t>> expanded(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::set<std::size_t> deps;
    for (std::size_t d : plan.steps[i].deps) {
      if (drop[d]) {
        deps.insert(expanded[d].begin(), expanded[d].end());
      } else {
        deps.insert(d);
      }
    }
    expanded[i].assign(deps.begin(), deps.end());
  }
  std::vector<std::size_t> remap(n, 0);
  std::vector<PlanStep> kept;
  kept.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (drop[i]) continue;
    remap[i] = kept.size();
    PlanStep step = std::move(plan.steps[i]);
    step.deps.clear();
    for (std::size_t d : expanded[i]) step.deps.push_back(remap[d]);
    kept.push_back(std::move(step));
  }
  plan.steps = std::move(kept);
}

/// The boundTo record of a move step — the planner marked it at lift time,
/// so bookkeeping SetProperty records riding in the same step can never be
/// mistaken for it.
model::OpRecord* bound_to_record(PlanStep& step) {
  if (step.effective_record == PlanStep::kNoEffective ||
      step.effective_record >= step.records.size()) {
    return nullptr;
  }
  model::OpRecord* op = &step.records[step.effective_record];
  return op->kind == model::OpKind::SetProperty ? op : nullptr;
}

std::uint64_t pass_merge_moves(AdaptationPlan& plan) {
  // Last binding per client wins; earlier move steps of the same client
  // are dropped from enactment.
  std::map<std::string, std::size_t> first_move;  // client -> step index
  std::map<std::string, std::size_t> last_move;
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    if (!is_move(plan.steps[i])) continue;
    first_move.try_emplace(plan.steps[i].subject, i);
    last_move[plan.steps[i].subject] = i;
  }
  std::vector<bool> drop(plan.steps.size(), false);
  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    if (is_move(plan.steps[i]) && last_move[plan.steps[i].subject] != i) {
      drop[i] = true;
      ++dropped;
    }
  }
  if (!dropped) return 0;
  // The surviving step's compensation metadata must point at the client's
  // *pre-plan* binding, not the intermediate hop: the dropped moves are
  // never enacted, so the runtime goes straight from the original group to
  // the final one, and an abort must send it straight back.
  for (const auto& [client, last] : last_move) {
    const std::size_t first = first_move[client];
    if (first == last) continue;
    model::OpRecord* kept = bound_to_record(plan.steps[last]);
    model::OpRecord* original = bound_to_record(plan.steps[first]);
    if (kept && original) {
      kept->prev_value = original->prev_value;
      kept->had_prev = original->had_prev;
    }
  }
  drop_steps(plan, drop);
  return dropped;
}

std::uint64_t pass_batch_gauges(AdaptationPlan& plan) {
  // Gauge steps keyed by their (sorted) dependency set; same frontier =>
  // one batched reconfigure. Nothing ever depends on a gauge step, so
  // merging them needs no dependents rewiring — but indices still shift,
  // so reuse drop_steps for the removal.
  std::map<std::vector<std::size_t>, std::size_t> frontier;  // deps -> step
  std::vector<bool> drop(plan.steps.size(), false);
  std::uint64_t folded = 0;
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    PlanStep& step = plan.steps[i];
    if (step.kind != PlanStep::Kind::GaugeRedeploy) continue;
    std::vector<std::size_t> key = step.deps;
    std::sort(key.begin(), key.end());
    auto [it, fresh] = frontier.try_emplace(std::move(key), i);
    if (fresh) continue;
    PlanStep& host = plan.steps[it->second];
    for (std::string& element : step.elements) {
      host.elements.push_back(std::move(element));
    }
    // Batched elements redeploy concurrently: the step costs the slowest.
    host.estimated_cost = std::max(host.estimated_cost, step.estimated_cost);
    host.label = "gauges[" + std::to_string(host.elements.size()) + "]";
    drop[i] = true;
    ++folded;
  }
  if (folded) drop_steps(plan, drop);
  return folded;
}

/// The vocabulary's entry for the style operator a runtime step enacts;
/// null for Replay steps.
const acme::OperatorEffect* step_effect(const PlanStep& step,
                                        const acme::Vocabulary& vocabulary) {
  if (step.op_class == OpClass::Replay) return nullptr;
  for (const acme::OperatorEffect& op : vocabulary.operators) {
    if (operator_class(op.name) == step.op_class) return &op;
  }
  return nullptr;
}

/// Server groups whose observed properties a runtime step influences: the
/// scope group of a recruit/release, and both the source and target group
/// of a move (load shifts off one onto the other).
std::set<std::string> step_groups(PlanStep& step) {
  std::set<std::string> groups;
  if (step.op_class == PlanStep::OpClass::Move) {
    if (const model::OpRecord* bound = bound_to_record(step)) {
      if (bound->value.is_string()) groups.insert(bound->value.as_string());
      if (bound->had_prev && bound->prev_value.is_string()) {
        groups.insert(bound->prev_value.as_string());
      }
    }
    return groups;
  }
  if (step.effective_record != PlanStep::kNoEffective &&
      step.effective_record < step.records.size()) {
    const model::OpRecord& op = step.records[step.effective_record];
    if (!op.scope.empty()) groups.insert(op.scope.back());
  }
  return groups;
}

bool reaches(const AdaptationPlan& plan, std::size_t from, std::size_t to) {
  // deps point strictly downward, so walk them depth-first from `from`.
  std::vector<std::size_t> stack{from};
  std::set<std::size_t> seen;
  while (!stack.empty()) {
    const std::size_t cur = stack.back();
    stack.pop_back();
    if (cur == to) return true;
    if (!seen.insert(cur).second) continue;
    for (std::size_t d : plan.steps[cur].deps) {
      if (d >= to) stack.push_back(d);
    }
  }
  return false;
}

void pass_effect_deps(AdaptationPlan& plan,
                      const acme::Vocabulary& vocabulary) {
  struct StepFx {
    std::set<std::string> groups;
    const acme::OperatorEffect* effect = nullptr;
  };
  std::vector<StepFx> fx(plan.steps.size());
  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    PlanStep& step = plan.steps[i];
    if (step.kind != PlanStep::Kind::RuntimeOps) continue;
    fx[i].effect = step_effect(step, vocabulary);
    if (fx[i].effect) fx[i].groups = step_groups(step);
  }
  for (std::size_t j = 1; j < plan.steps.size(); ++j) {
    if (!fx[j].effect) continue;
    for (std::size_t i = 0; i < j; ++i) {
      if (!fx[i].effect) continue;
      bool shared_group = false;
      for (const std::string& g : fx[j].groups) {
        if (fx[i].groups.count(g) != 0) {
          shared_group = true;
          break;
        }
      }
      if (!shared_group) continue;
      bool shared_influence = false;
      for (const auto& [prop, dir] : fx[j].effect->influences) {
        (void)dir;
        if (fx[i].effect->influences.count(prop) != 0) {
          shared_influence = true;
          break;
        }
      }
      if (!shared_influence) continue;
      if (reaches(plan, j, i)) continue;  // already ordered
      plan.steps[j].deps.push_back(i);
    }
  }
}

}  // namespace

PlanOptimizerStats optimize_plan(AdaptationPlan& plan,
                                 const acme::Vocabulary* effects) {
  PlanOptimizerStats stats;
  if (effects) pass_effect_deps(plan, *effects);
  stats.moves_merged = pass_merge_moves(plan);
  stats.gauges_batched = pass_batch_gauges(plan);
  return stats;
}

}  // namespace arcadia::repair
