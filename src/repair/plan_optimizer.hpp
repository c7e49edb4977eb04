// Cost-aware optimization passes over an AdaptationPlan, run between
// lifting and enactment:
//
//   1. merge-moves    — when several runtime steps re-bind the same client
//                       (a TryAll strategy moving it twice), only the last
//                       binding is enacted; superseded move steps drop out
//                       of the plan (their model effects are already
//                       committed; the final moveClient overrides them at
//                       the runtime layer).
//   2. batch-gauges   — gauge-redeploy steps that become ready at the same
//                       dependency frontier fold into one batched step, so
//                       the executor issues a single GaugeManager
//                       reconfigure for all affected elements and pays the
//                       slowest element instead of the sum. This is the
//                       pass that attacks the paper's "~30 s, dominated by
//                       gauge create/delete" repair time.
//   0. effect-deps    — (runs first, when a vocabulary is supplied)
//                       adds ordering edges between runtime steps whose
//                       statically inferred operator influences collide on
//                       the same server group (e.g. two load-shedding
//                       moves into one group), even when the lift-time
//                       element-overlap wiring left them independent. A
//                       second, semantic source of dependency edges from
//                       acme's effect inference.
//
// Dependency edges through dropped steps are rewired transitively, so the
// optimized plan keeps exactly the ordering guarantees of the original.
#pragma once

#include <cstdint>

#include "acme/effects.hpp"
#include "repair/plan.hpp"

namespace arcadia::repair {

struct PlanOptimizerStats {
  std::uint64_t moves_merged = 0;    ///< superseded move steps dropped
  std::uint64_t gauges_batched = 0;  ///< gauge steps folded into batches
};

/// Run all passes in place. Deterministic: a given plan always optimizes to
/// the same result (the fleet determinism contract depends on this).
/// `effects` (the style's vocabulary) enables the effect-deps pass; pass
/// nullptr to skip it.
PlanOptimizerStats optimize_plan(AdaptationPlan& plan,
                                 const acme::Vocabulary* effects);

inline PlanOptimizerStats optimize_plan(AdaptationPlan& plan) {
  return optimize_plan(plan, nullptr);
}

}  // namespace arcadia::repair
