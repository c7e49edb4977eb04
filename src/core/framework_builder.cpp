#include "core/framework_builder.hpp"

#include "repair/engine.hpp"

namespace arcadia::core {

FrameworkBuilder::FrameworkBuilder(sim::Simulator& sim, sim::Testbed& testbed)
    : sim_(sim), testbed_(testbed) {}

FrameworkBuilder& FrameworkBuilder::with_config(FrameworkConfig config) {
  config_ = std::move(config);
  return *this;
}

FrameworkBuilder& FrameworkBuilder::with_profile(
    task::PerformanceProfile profile) {
  config_.profile = profile;
  return *this;
}

FrameworkBuilder& FrameworkBuilder::with_script(std::string source) {
  config_.script_source = std::move(source);
  return *this;
}

FrameworkBuilder& FrameworkBuilder::with_policy(std::string policy_name) {
  // Fail at configuration time, not mid-run.
  repair::violation_chooser(policy_name);
  config_.policy_name = std::move(policy_name);
  return *this;
}

FrameworkBuilder& FrameworkBuilder::with_verification(VerifyMode mode) {
  config_.verify = mode;
  return *this;
}

FrameworkBuilder& FrameworkBuilder::with_durability(
    durability::Options options) {
  config_.durability = std::move(options);
  return *this;
}

FrameworkBuilder& FrameworkBuilder::with_remos(
    FrameworkParts::RemosFactory factory) {
  parts_.remos = std::move(factory);
  return *this;
}

FrameworkBuilder& FrameworkBuilder::with_probe_bus(
    FrameworkParts::BusFactory factory) {
  parts_.probe_bus = std::move(factory);
  return *this;
}

FrameworkBuilder& FrameworkBuilder::with_gauge_bus(
    FrameworkParts::BusFactory factory) {
  parts_.gauge_bus = std::move(factory);
  return *this;
}

FrameworkBuilder& FrameworkBuilder::with_model(
    FrameworkParts::ModelFactory factory) {
  parts_.model = std::move(factory);
  return *this;
}

FrameworkBuilder& FrameworkBuilder::with_translator(
    FrameworkParts::TranslatorFactory factory) {
  parts_.translator = std::move(factory);
  return *this;
}

FrameworkBuilder& FrameworkBuilder::with_probe_set(
    FrameworkParts::ProbeFactory factory) {
  parts_.probes = std::move(factory);
  return *this;
}

FrameworkBuilder& FrameworkBuilder::with_gauge_deployer(
    FrameworkParts::GaugeDeployer deployer) {
  parts_.gauges = std::move(deployer);
  return *this;
}

std::unique_ptr<Framework> FrameworkBuilder::build() {
  return std::make_unique<Framework>(sim_, testbed_, config_, parts_);
}

std::unique_ptr<Framework> FrameworkBuilder::build_started() {
  std::unique_ptr<Framework> fw = build();
  fw->start();
  return fw;
}

}  // namespace arcadia::core
