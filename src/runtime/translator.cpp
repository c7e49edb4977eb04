#include "runtime/translator.hpp"

#include "util/log.hpp"

namespace arcadia::rt {

SimTranslator::SimTranslator(SimEnvironmentManager& env,
                             repair::StyleConventions conventions)
    : env_(env), conv_(conventions) {}

SimTime op_class_cost(repair::OpClass cls, const EnvironmentCosts& costs) {
  switch (cls) {
    case repair::OpClass::Recruit:
      // connectServer + activateServer (process start-up included).
      return costs.rmi_call + costs.rmi_call + costs.activate_extra;
    case repair::OpClass::Move:     // moveClient
    case repair::OpClass::Release:  // deactivateServer
      return costs.rmi_call;
    case repair::OpClass::Replay:
      break;
  }
  return SimTime::zero();
}

SimTime SimTranslator::apply(const std::vector<model::OpRecord>& records) {
  SimTime cost = SimTime::zero();
  for (const model::OpRecord& op : records) {
    switch (repair::op_class_of(op, conv_)) {
      case repair::OpClass::Recruit:
        // A server component appeared inside a group's representation:
        // recruit the matching runtime server into the group's queue.
        env_.connectServer(op.element, op.scope.front());
        cost += env_.last_op_cost();
        env_.activateServer(op.element);
        cost += env_.last_op_cost();
        env_.note_recruited(op.element);
        stats_.runtime_ops += 2;
        break;
      case repair::OpClass::Release:
        env_.deactivateServer(op.element);
        cost += env_.last_op_cost();
        env_.note_released(op.element);
        ++stats_.runtime_ops;
        break;
      case repair::OpClass::Move:
        env_.moveClient(op.element, op.value.as_string());
        cost += env_.last_op_cost();
        ++stats_.runtime_ops;
        break;
      case repair::OpClass::Replay:
        ++stats_.ignored;
        break;
    }
  }
  ARC_DEBUG << "translator: applied " << records.size() << " record(s), cost "
            << cost.as_seconds() << "s";
  return cost;
}

SimTime SimTranslator::estimate(
    const std::vector<model::OpRecord>& records) const {
  SimTime cost = SimTime::zero();
  for (const model::OpRecord& op : records) {
    cost += op_class_cost(repair::op_class_of(op, conv_), env_.costs());
  }
  return cost;
}

}  // namespace arcadia::rt
