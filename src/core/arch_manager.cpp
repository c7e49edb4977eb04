#include "core/arch_manager.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "monitor/topics.hpp"

namespace arcadia::core {

ArchitectureManager::ArchitectureManager(sim::Simulator& sim,
                                         model::System& system,
                                         repair::RepairEngine& engine)
    : sim_(sim), system_(system), engine_(engine), checker_(system) {}

bool ArchitectureManager::parse_gauge_lifecycle(const events::Notification& n,
                                                util::Symbol& element,
                                                util::Symbol& phase) {
  const events::Value* el_v = n.get_if(monitor::topics::kAttrElementSym);
  const events::Value* phase_v = n.get_if(monitor::topics::kAttrPhaseSym);
  if (!el_v || !phase_v || !el_v->is_string() || !phase_v->is_string()) {
    return false;
  }
  element = el_v->to_symbol();
  phase = phase_v->to_symbol();
  return true;
}

void ArchitectureManager::note_gauge_liveness(util::Symbol element,
                                              bool suspect) {
  int& refs = suspect_refs_[element];
  if (suspect) {
    if (++refs != 1) return;
    ++stats_.elements_suspected;
  } else {
    if (refs == 0 || --refs != 0) return;
    ++stats_.elements_cleared;
  }
  checker_.set_element_suspect(element, suspect);
}

bool ArchitectureManager::parse_gauge_address(util::Symbol address,
                                              util::Symbol& element,
                                              util::Symbol& role) {
  const std::string& addr = address.str();
  if (addr.empty()) return false;
  const auto dot = addr.find('.');
  if (dot == std::string::npos) {
    element = address;
    role = util::Symbol();
    return true;
  }
  // "Connector.role" needs both halves; "X." must not degrade to a
  // component write against X.
  if (dot == 0 || dot + 1 == addr.size()) return false;
  element = util::Symbol::intern(std::string_view(addr).substr(0, dot));
  role = util::Symbol::intern(std::string_view(addr).substr(dot + 1));
  return true;
}

namespace {

/// The monitoring noise floor: a repeated reading within this band carries
/// no information the constraint layer could act on. Thresholds in the task
/// layer are O(0.1)+ (utilization 0.2, latency 2 s, load 6), so 1e-5
/// absolute cannot mask a crossing; the relative term covers large
/// magnitudes (bandwidths in bps).
bool within_noise_floor(const model::Element& el, util::Symbol property,
                        const events::Value& value) {
  const events::Value* current = el.find_property(property);
  if (current == nullptr) return false;
  if (*current == value) return true;
  if (current->is_numeric() && value.is_numeric()) {
    const double a = current->as_double();
    const double b = value.as_double();
    return std::abs(a - b) <=
           std::max(1e-5, 1e-9 * std::max(std::abs(a), std::abs(b)));
  }
  return false;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

ArchitectureManager::GaugeApply ArchitectureManager::apply_gauge_value(
    util::Symbol element, util::Symbol role, util::Symbol property,
    const events::Value& value) {
  model::Element* target = nullptr;
  if (role.empty()) {
    target = system_.find_component(element);
  } else if (model::Connector* conn = system_.find_connector(element)) {
    target = conn->find_role(role);
  }
  if (target == nullptr) return GaugeApply::NoTarget;
  if (within_noise_floor(*target, property, value)) {
    return GaugeApply::Unchanged;
  }
  target->set_property(property, value);
  if (journal_sink_ != nullptr) {
    // Only Applied folds reach the journal: dead-banded repeats change
    // nothing, so replay reconstructs the model exactly from this stream.
    journal_sink_->on_gauge_applied(journal_shard_, sim_.now(), element, role,
                                    property, value);
  }
  return GaugeApply::Applied;
}

std::vector<repair::Violation> ArchitectureManager::detect() {
  const auto t0 = std::chrono::steady_clock::now();
  ++stats_.checks;
  std::vector<repair::Violation> violations = checker_.check();
  stats_.check_wall_s += seconds_since(t0);
  return violations;
}

void ArchitectureManager::dispatch(
    const std::vector<repair::Violation>& violations) {
  if (violations.empty()) return;
  const auto t0 = std::chrono::steady_clock::now();
  engine_.handle_violations(violations);
  stats_.dispatch_wall_s += seconds_since(t0);
}

}  // namespace arcadia::core
