// The translator (Figure 1, item 5): interprets committed model-layer
// changes as operations on the running system. The correspondence is the
// "hand-tailored support for translating APIs in the Model Layer to ones
// in the Runtime Layer" of Section 4 — here made explicit as a rule table,
// written once as repair::op_class_of and priced by op_class_cost:
//
//   model op                                   -> runtime operations
//   ------------------------------------------------------------------
//   AddComponent srv in ServerGrpX/            -> connectServer(srv, X);
//                                                 activateServer(srv)
//   RemoveComponent srv in ServerGrpX/         -> deactivateServer(srv)
//   SetProperty client.boundTo = ServerGrpX    -> moveClient(client, X)
//   Attach/Detach (group.provide <-> conn)     -> (covered by boundTo)
//   SetProperty anything else                  -> no runtime effect
#pragma once

#include <cstdint>

#include "repair/plan.hpp"
#include "repair/style_ops.hpp"
#include "runtime/environment.hpp"

namespace arcadia::rt {

struct TranslatorStats {
  std::uint64_t runtime_ops = 0;
  std::uint64_t ignored = 0;
};

/// Table-1 price of one op of class `cls`: what apply() charges for it and
/// estimate() predicts (arcverify's deployment view prices operators by it
/// too).
SimTime op_class_cost(repair::OpClass cls, const EnvironmentCosts& costs);

class SimTranslator : public repair::Translator {
 public:
  SimTranslator(SimEnvironmentManager& env,
                repair::StyleConventions conventions = {});

  SimTime apply(const std::vector<model::OpRecord>& records) override;

  /// The planner's Table-1 estimate: the same classes as apply(), priced by
  /// op_class_cost without touching the runtime.
  SimTime estimate(const std::vector<model::OpRecord>& records) const override;

  const TranslatorStats& stats() const { return stats_; }

 private:
  SimEnvironmentManager& env_;
  repair::StyleConventions conv_;
  TranslatorStats stats_;
};

}  // namespace arcadia::rt
