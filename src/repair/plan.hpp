// The AdaptationPlan IR: the explicit, analyzable artifact between an
// architectural repair decision and its enactment. A strategy still runs
// in a model transaction; the committed OpRecord stream is then *lifted*
// into a small DAG of runtime steps — each carrying the op records it
// enacts, an estimated Table-1 cost, and explicit dependencies — plus
// gauge re-deployment steps for the monitoring the repair disturbs.
//
// The split buys three things the paper's strictly sequential repair
// lacked; that repair survives as one plan shape (build_sequential_plan),
// which gets only the third:
//   * optimization  — redundant moves merge, gauge re-deployments batch
//                     (repair/plan_optimizer.hpp);
//   * overlap       — independent steps enact concurrently, and detection
//                     keeps running while a plan is in flight
//                     (repair/plan_executor.hpp);
//   * preemption    — a half-enacted plan can abort: remaining steps are
//                     skipped and compensations (OpRecord::inverse from the
//                     transaction journal) bring model and runtime back to
//                     their pre-repair state.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "model/transaction.hpp"
#include "monitor/gauge_manager.hpp"
#include "repair/style_ops.hpp"
#include "util/units.hpp"

namespace arcadia::repair {

/// Maps committed model changes to runtime operations; implemented by the
/// runtime module against the environment manager.
class Translator {
 public:
  virtual ~Translator() = default;
  /// Apply the records to the running system; returns the modeled cost of
  /// the runtime operations performed.
  virtual SimTime apply(const std::vector<model::OpRecord>& records) = 0;
  /// Predicted cost of applying `records`, without touching the runtime —
  /// the planner's Table-1 estimate. Default: no cost model.
  virtual SimTime estimate(const std::vector<model::OpRecord>& records) const {
    (void)records;
    return SimTime::zero();
  }
};

struct PlanStep {
  enum class Kind {
    RuntimeOps,     ///< translate this step's op records to the runtime
    GaugeRedeploy,  ///< re-deploy the gauges of `elements` (batched)
  };
  Kind kind = Kind::RuntimeOps;
  /// What the step's effective op does at the runtime layer (op_class_of
  /// of it; Replay when the step has none) — set by the planner so
  /// optimizer passes reason about steps without re-deriving the rule.
  using OpClass = repair::OpClass;
  OpClass op_class = OpClass::Replay;
  /// The element the effective op acts on (moved client, recruited server).
  std::string subject;
  /// RuntimeOps: the journal slice this step enacts, in commit order.
  std::vector<model::OpRecord> records;
  /// Index into `records` of the runtime-effective op (kNoEffective for a
  /// Replay step) — lets optimizer passes address it without re-deriving
  /// translator rules.
  static constexpr std::size_t kNoEffective = static_cast<std::size_t>(-1);
  std::size_t effective_record = kNoEffective;
  /// GaugeRedeploy: the affected elements whose gauges re-deploy. The
  /// executor issues them as one batched GaugeManager reconfigure, so the
  /// step's latency is the slowest element, not the sum.
  std::vector<std::string> elements;
  /// Indices of steps that must complete before this one starts.
  std::vector<std::size_t> deps;
  /// Planner's cost estimate (Translator::estimate for runtime steps,
  /// GaugeManager::redeploy_cost for gauge steps). Metadata for logs,
  /// benches, and plan analysis — execution charges real costs.
  SimTime estimated_cost;
  std::string label;
};

struct AdaptationPlan {
  std::vector<PlanStep> steps;
  /// The full committed journal, in commit order — the compensation source
  /// when the plan is preempted or fails mid-flight.
  std::vector<model::OpRecord> journal;

  std::size_t runtime_step_count() const;
  std::size_t gauge_step_count() const;
  /// Longest dependency chain by estimated cost — the plan's predicted
  /// end-to-end enactment latency under unlimited concurrency.
  SimTime estimated_critical_path() const;
  /// Sum of every step's estimate — what the strictly sequential shape
  /// (build_sequential_plan) predicts.
  SimTime estimated_serial_cost() const;
};

/// Gauge-carrying element names disturbed by `records`: components touched
/// directly, plus connector-role elements ("Conn_User3.clientSide") of
/// re-wired connectors. With no gauge manager, falls back to the touched
/// component set (model-only rigs still get settle damping).
std::vector<std::string> affected_gauge_elements(
    const std::vector<model::OpRecord>& records,
    const monitor::GaugeManager* gauges);

/// Lift a committed journal into a plan: segment records into runtime steps
/// around the runtime-effective ops (op_class_of not Replay), wire
/// dependencies between steps that touch overlapping elements, and append
/// one gauge-redeploy step per affected element (depending on every runtime
/// step that disturbs it). `translator` and `gauges` supply cost estimates
/// and the gauge catalog; either may be null.
AdaptationPlan build_plan(const std::vector<model::OpRecord>& records,
                          const StyleConventions& conv,
                          const Translator* translator,
                          const monitor::GaugeManager* gauges);

/// The paper's strictly sequential repair (Section 5.3) as a plan shape:
/// one runtime step replaying the whole journal (label "replay"), then one
/// gauge-redeploy step per affected_gauge_elements() entry, in that order,
/// each depending on the step before it. The chain leaves the executor
/// nothing to overlap, so enactment is translate-all, then re-deploy one
/// element's gauges at a time. Not meant for optimize_plan(). With no gauge
/// manager the plan is the runtime step alone.
AdaptationPlan build_sequential_plan(
    const std::vector<model::OpRecord>& records, const Translator* translator,
    const monitor::GaugeManager* gauges);

}  // namespace arcadia::repair
