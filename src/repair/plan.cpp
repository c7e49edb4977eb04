#include "repair/plan.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace arcadia::repair {

namespace {

/// Element names an op record reads or rewires — the planner's dependency
/// footprint. Deliberately conservative: the boundTo target group counts as
/// touched, so a move into a group serializes after a recruit into it.
void collect_touched(const model::OpRecord& op, const StyleConventions& conv,
                     std::set<std::string>& out) {
  if (!op.scope.empty()) out.insert(op.scope.front());
  if (!op.element.empty()) out.insert(op.element);
  if (op.kind == model::OpKind::Attach || op.kind == model::OpKind::Detach) {
    if (!op.attachment.component.empty()) out.insert(op.attachment.component);
    if (!op.attachment.connector.empty()) out.insert(op.attachment.connector);
  }
  if (op_class_of(op, conv) == OpClass::Move) {
    out.insert(op.value.as_string());
  }
}

bool intersects(const std::set<std::string>& a,
                const std::set<std::string>& b) {
  const std::set<std::string>& small = a.size() <= b.size() ? a : b;
  const std::set<std::string>& large = a.size() <= b.size() ? b : a;
  for (const std::string& s : small) {
    if (large.count(s)) return true;
  }
  return false;
}

}  // namespace

std::vector<std::string> affected_gauge_elements(
    const std::vector<model::OpRecord>& records,
    const monitor::GaugeManager* gauges) {
  std::set<std::string> components;
  std::set<std::string> connectors;
  for (const model::OpRecord& op : records) {
    if (!op.scope.empty()) {
      components.insert(op.scope.front());
      continue;
    }
    switch (op.kind) {
      case model::OpKind::Attach:
      case model::OpKind::Detach:
        // The re-wired element is the connector (and so the client gauges
        // keyed on its roles); the groups on either end keep serving their
        // other clients undisturbed.
        connectors.insert(op.attachment.connector);
        break;
      default:
        components.insert(op.element);
    }
  }
  std::vector<std::string> out;
  if (!gauges) {
    out.assign(components.begin(), components.end());
    return out;
  }
  // Keep only elements that actually carry gauges; include connector-role
  // elements ("Conn_User3.clientSide") touched by attach/detach.
  for (const std::string& element : gauges->all_elements()) {
    if (components.count(element)) {
      out.push_back(element);
      continue;
    }
    auto dot = element.find('.');
    if (dot != std::string::npos && connectors.count(element.substr(0, dot))) {
      out.push_back(element);
    }
  }
  return out;
}

std::size_t AdaptationPlan::runtime_step_count() const {
  std::size_t n = 0;
  for (const PlanStep& s : steps) {
    if (s.kind == PlanStep::Kind::RuntimeOps) ++n;
  }
  return n;
}

std::size_t AdaptationPlan::gauge_step_count() const {
  return steps.size() - runtime_step_count();
}

SimTime AdaptationPlan::estimated_critical_path() const {
  // Steps only depend on lower indices, so one forward pass suffices.
  std::vector<SimTime> finish(steps.size(), SimTime::zero());
  SimTime best = SimTime::zero();
  for (std::size_t i = 0; i < steps.size(); ++i) {
    SimTime start = SimTime::zero();
    for (std::size_t d : steps[i].deps) start = std::max(start, finish[d]);
    finish[i] = start + steps[i].estimated_cost;
    best = std::max(best, finish[i]);
  }
  return best;
}

SimTime AdaptationPlan::estimated_serial_cost() const {
  SimTime sum = SimTime::zero();
  for (const PlanStep& s : steps) sum += s.estimated_cost;
  return sum;
}

AdaptationPlan build_plan(const std::vector<model::OpRecord>& records,
                          const StyleConventions& conv,
                          const Translator* translator,
                          const monitor::GaugeManager* gauges) {
  AdaptationPlan plan;
  plan.journal = records;

  // ---- segment the journal into runtime steps, one per effective op ----
  std::vector<std::size_t> effective;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (op_class_of(records[i], conv) != OpClass::Replay) {
      effective.push_back(i);
    }
  }

  // record index -> owning step index.
  std::vector<std::size_t> owner(records.size(), 0);
  std::size_t runtime_steps = 0;
  if (effective.empty()) {
    // Nothing the runtime acts on: a single zero-cost replay step keeps
    // the pipeline uniform (the translator still sees the records and
    // counts them as ignored).
    runtime_steps = records.empty() ? 0 : 1;
  } else {
    runtime_steps = effective.size();
    // Non-effective records ride with an adjacent effective op: with the
    // *next* one when they share a touched element (structural halves —
    // detach/attach — precede the boundTo that realizes the move),
    // otherwise with the previous one (bookkeeping like replicationCount
    // follows its AddComponent).
    std::vector<std::set<std::string>> eff_touched(effective.size());
    for (std::size_t k = 0; k < effective.size(); ++k) {
      collect_touched(records[effective[k]], conv, eff_touched[k]);
      owner[effective[k]] = k;
    }
    std::size_t next_eff = 0;  // first effective index >= current record
    for (std::size_t i = 0; i < records.size(); ++i) {
      while (next_eff < effective.size() && effective[next_eff] < i) {
        ++next_eff;
      }
      if (next_eff < effective.size() && effective[next_eff] == i) continue;
      std::set<std::string> touched;
      collect_touched(records[i], conv, touched);
      if (next_eff >= effective.size()) {
        owner[i] = effective.size() - 1;  // trailing: previous step
      } else if (next_eff == 0) {
        owner[i] = 0;  // leading: first step
      } else if (intersects(touched, eff_touched[next_eff])) {
        owner[i] = next_eff;
      } else {
        owner[i] = next_eff - 1;
      }
    }
  }

  plan.steps.resize(runtime_steps);
  {
    std::size_t next_eff = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
      PlanStep& step = plan.steps[owner[i]];
      if (next_eff < effective.size() && effective[next_eff] == i) {
        step.effective_record = step.records.size();
        ++next_eff;
      }
      step.records.push_back(records[i]);
    }
  }
  std::vector<std::set<std::string>> touched(runtime_steps);
  for (std::size_t s = 0; s < runtime_steps; ++s) {
    PlanStep& step = plan.steps[s];
    step.kind = PlanStep::Kind::RuntimeOps;
    for (const model::OpRecord& op : step.records) {
      collect_touched(op, conv, touched[s]);
    }
    if (!effective.empty()) {
      const model::OpRecord& eff = records[effective[s]];
      step.subject = eff.element;
      step.op_class = op_class_of(eff, conv);
    }
    step.label = effective.empty() ? "replay"
                                   : records[effective[s]].describe();
    if (translator) step.estimated_cost = translator->estimate(step.records);
    for (std::size_t prev = 0; prev < s; ++prev) {
      if (intersects(touched[s], touched[prev])) step.deps.push_back(prev);
    }
  }

  // ---- one gauge-redeploy step per disturbed element, depending on every
  //      runtime step that disturbs it ----
  if (gauges) {
    std::vector<std::string> order;  // first-disturbed order (deterministic)
    std::map<std::string, std::vector<std::size_t>> disturbed_by;
    for (std::size_t s = 0; s < runtime_steps; ++s) {
      for (const std::string& element :
           affected_gauge_elements(plan.steps[s].records, gauges)) {
        auto [it, fresh] = disturbed_by.try_emplace(element);
        if (fresh) order.push_back(element);
        it->second.push_back(s);
      }
    }
    for (const std::string& element : order) {
      PlanStep step;
      step.kind = PlanStep::Kind::GaugeRedeploy;
      step.elements.push_back(element);
      step.deps = disturbed_by[element];
      step.estimated_cost = gauges->redeploy_cost(element);
      step.label = "gauges:" + element;
      plan.steps.push_back(std::move(step));
    }
  }
  return plan;
}

AdaptationPlan build_sequential_plan(
    const std::vector<model::OpRecord>& records, const Translator* translator,
    const monitor::GaugeManager* gauges) {
  AdaptationPlan plan;
  plan.journal = records;
  PlanStep replay;
  replay.records = records;
  replay.label = "replay";
  if (translator) replay.estimated_cost = translator->estimate(records);
  plan.steps.push_back(std::move(replay));
  if (!gauges) return plan;
  for (const std::string& element : affected_gauge_elements(records, gauges)) {
    PlanStep step;
    step.kind = PlanStep::Kind::GaugeRedeploy;
    step.elements.push_back(element);
    step.deps.push_back(plan.steps.size() - 1);
    step.estimated_cost = gauges->redeploy_cost(element);
    step.label = "gauges:" + element;
    plan.steps.push_back(std::move(step));
  }
  return plan;
}

}  // namespace arcadia::repair
