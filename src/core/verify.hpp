// Whole-deployment semantic verification (arcverify's core-layer half).
//
// acme/analysis.hpp defines the rules over plain data; this module
// assembles that data from a live assembly: the installed constraints of
// a started Framework, the gauge mappings its GaugeManager deployed, the
// operator costs its environment declares, and the operator call sites
// reachable from its script's invariant handlers. It also validates
// scenario configurations against the catalog and their own invariants
// (probabilities in range, ordered schedule breakpoints, positive
// topology counts).
//
// Used three ways: the FrameworkConfig::verify startup hook (warn or
// fail-fast on a misconfigured deployment), the tools/arcverify CLI (the
// ctest/CI gate over shipped scripts and every catalog scenario), and
// tests.
#pragma once

#include <string>
#include <vector>

#include "acme/analysis.hpp"
#include "sim/scenario.hpp"

namespace arcadia::core {

class Framework;

/// Assemble the cross-artifact view of a *started* framework (gauges must
/// be deployed; Framework::start does that synchronously before its
/// verification hook runs).
acme::analysis::DeploymentView make_deployment_view(Framework& fw);

/// Script rules + deployment rules over one started framework.
std::vector<acme::analysis::AnalysisIssue> verify_framework(Framework& fw);

/// Validate a scenario configuration: `name` must be in the catalog (empty
/// skips the catalog check), probabilities must be probabilities, fault
/// windows and schedule breakpoints must be ordered, topology counts
/// positive. Rule id: "scenario-config".
std::vector<acme::analysis::AnalysisIssue> verify_scenario_config(
    const std::string& name, const sim::ScenarioConfig& config);

}  // namespace arcadia::core
