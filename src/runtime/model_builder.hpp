// Builds the architectural model (Figure 2) that mirrors a running
// testbed: clients, server groups with representations holding their
// replicas, one request/reply connector per client, and the initial
// property values. Element names equal runtime entity names — the
// model<->runtime correspondence the translator relies on.
#pragma once

#include <memory>

#include "model/system.hpp"
#include "repair/style_ops.hpp"
#include "sim/scenario.hpp"

namespace arcadia::rt {

struct ModelBuildOptions {
  repair::StyleConventions conventions;
  /// Initial maxLatency property on every client (task-layer profile).
  SimTime max_latency = SimTime::seconds(2);
};

/// Construct the model for a built testbed. Connector names follow
/// "Conn_<client>" and carry a clientSide/serverSide role pair.
std::unique_ptr<model::System> build_grid_model(const sim::Testbed& testbed,
                                                const ModelBuildOptions& options);

}  // namespace arcadia::rt
