// Architecture adaptation operators for the client-server style
// (Section 3.3): addServer, move, removeServer — plus the runtime-query
// functions repair scripts call (findGoodSGrp, findServer, ...). Operators
// mutate the model through the live transaction; the translator later maps
// the committed op records onto Table 1 runtime operations.
#pragma once

#include <string>

#include "acme/interpreter.hpp"
#include "repair/runtime_queries.hpp"

namespace arcadia::repair {

/// Conventions used when instantiating the client-server style; must match
/// how the framework builds the model.
struct StyleConventions {
  std::string request_port = "request";    ///< client port name
  std::string provide_port = "provide";    ///< server-group port name
  std::string client_role = "clientSide";  ///< connector role names
  std::string server_role = "serverSide";
  /// Property set on a client by move() so repairs journal the client (and
  /// the translator knows the new assignment).
  std::string bound_to_prop = "boundTo";
  /// Marker on dynamically recruited server components.
  std::string dynamic_prop = "dynamic";
};

/// Register the style's operators and query functions on an interpreter.
/// `queries` may be null (model-only mode: addServer synthesizes names and
/// findGoodSGrp falls back to role-bandwidth properties). `min_bandwidth`
/// is the task layer's threshold (task::PerformanceProfile::min_bandwidth)
/// a recruited server must offer; `load_improvement` is the queue-length
/// advantage a load-balancing move must gain
/// (RepairEngineConfig::load_improvement).
void register_client_server_ops(acme::Interpreter& interp,
                                const model::System& system,
                                RuntimeQueries* queries,
                                const StyleConventions& conventions,
                                Bandwidth min_bandwidth,
                                double load_improvement);

// ---- model navigation helpers shared by the operators and the
//      architecture manager ----

/// The (single) connector the client's request port is attached to;
/// nullptr when unattached.
const model::Connector* client_connector(const model::System& system,
                                         const std::string& client,
                                         const StyleConventions& conv);

/// The server group currently serving `client`; empty when none.
std::string group_of_client(const model::System& system,
                            const std::string& client,
                            const StyleConventions& conv);

/// Perform the model half of move(client -> group) inside `txn`.
void perform_move(model::Transaction& txn, const model::System& system,
                  const std::string& client, const std::string& group,
                  const StyleConventions& conv);

/// Perform the model half of addServer(group, server_name) inside `txn`.
void perform_add_server(model::Transaction& txn, const model::System& system,
                        const std::string& group,
                        const std::string& server_name,
                        const StyleConventions& conv);

/// Perform the model half of removeServer(group, server_name) inside `txn`.
void perform_remove_server(model::Transaction& txn,
                           const model::System& system,
                           const std::string& group,
                           const std::string& server_name);

}  // namespace arcadia::repair
