// Fluent assembly of the adaptation framework from pluggable parts. The
// default build() reproduces exactly the wiring the paper's experiment ran
// (Framework's legacy constructor); each with_* call swaps one part or
// config knob:
//
//   auto fw = core::FrameworkBuilder(sim, testbed)
//                 .with_policy("worst-first")
//                 .with_script(my_script_source)
//                 .build();
//   fw->start();
//
// Part factories run lazily inside Framework's constructor/start. The
// builder is bound to one (simulator, testbed) pair; repeated build()
// calls assemble further frameworks over that same testbed.
#pragma once

#include <memory>
#include <string>

#include "core/framework.hpp"

namespace arcadia::core {

class FrameworkBuilder {
 public:
  FrameworkBuilder(sim::Simulator& sim, sim::Testbed& testbed);

  /// Replace the whole config (otherwise defaults, adjusted by the
  /// finer-grained setters below).
  FrameworkBuilder& with_config(FrameworkConfig config);
  /// Task-layer objectives (latency bound, load/bandwidth thresholds).
  FrameworkBuilder& with_profile(task::PerformanceProfile profile);
  /// Repair-script source: the strategies and tactics every repair runs.
  FrameworkBuilder& with_script(std::string source);
  /// Violation policy by name: "first-reported" or "worst-first".
  FrameworkBuilder& with_policy(std::string policy_name);
  /// Startup semantic verification behavior (arcverify's in-process hook):
  /// Off, Warn (default — log issues), or Error (fail start() on any
  /// error-severity issue).
  FrameworkBuilder& with_verification(VerifyMode mode);
  /// Durability plane: journal + snapshots under options.dir (see
  /// durability/plane.hpp and core/recovery.hpp). An empty dir disables it.
  FrameworkBuilder& with_durability(durability::Options options);

  // -- part substitution (null restores the default wiring) --
  FrameworkBuilder& with_remos(FrameworkParts::RemosFactory factory);
  FrameworkBuilder& with_probe_bus(FrameworkParts::BusFactory factory);
  FrameworkBuilder& with_gauge_bus(FrameworkParts::BusFactory factory);
  FrameworkBuilder& with_model(FrameworkParts::ModelFactory factory);
  FrameworkBuilder& with_translator(FrameworkParts::TranslatorFactory factory);
  FrameworkBuilder& with_probe_set(FrameworkParts::ProbeFactory factory);
  FrameworkBuilder& with_gauge_deployer(FrameworkParts::GaugeDeployer deployer);

  const FrameworkConfig& config() const { return config_; }

  /// Assemble the framework (does not start it).
  std::unique_ptr<Framework> build();
  /// Assemble and start: probes deployed, Remos warmed, checking armed.
  std::unique_ptr<Framework> build_started();

 private:
  sim::Simulator& sim_;
  sim::Testbed& testbed_;
  FrameworkConfig config_;
  FrameworkParts parts_;
};

}  // namespace arcadia::core
