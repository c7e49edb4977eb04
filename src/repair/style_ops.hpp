// The client-server style (Section 3.3), declared once: its script
// vocabulary — the adaptation operators addServer, removeServer and move,
// the runtime-query functions roleOf, groupOf, findGoodSGrp and
// findLessLoadedSGrp, and the task-layer globals — next to the operators'
// implementations, plus the Table-1 rule that classifies committed model
// ops for the runtime. Operators mutate the model through the live
// transaction; the translator later enacts the committed op records by
// their Table-1 class.
#pragma once

#include <string>
#include <vector>

#include "acme/effects.hpp"
#include "acme/interpreter.hpp"
#include "model/transaction.hpp"
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

/// Table 1's runtime classes: what one committed model op does to the
/// running system.
enum class OpClass {
  Replay,   ///< no runtime effect (model-only bookkeeping)
  Move,     ///< moveClient: re-bind a client to another group
  Recruit,  ///< connectServer + activateServer into a group
  Release,  ///< deactivateServer
};

/// The Table-1 rule: a server added to (removed from) a group's
/// representation is recruited (released); a string-valued
/// `conv.bound_to_prop` write moves its client; everything else —
/// root-scope structure, the attach/detach halves of a move, other
/// properties — is Replay. The planner, the translator (apply and
/// estimate) and the repair engine's op summary all classify through it.
OpClass op_class_of(const model::OpRecord& op, const StyleConventions& conv);

/// The Table-1 class of the style operator called `name` (Replay for a
/// name the style does not declare): how the plan optimizer maps a step
/// back to its operator, and how arcverify prices each operator.
OpClass operator_class(const std::string& name);

/// The style's script vocabulary as the checker and the analyses read it:
/// the operators (a Move's write set is `conv.bound_to_prop`), the query
/// functions, and the task-layer globals (task::task_globals).
acme::Vocabulary client_server_vocabulary(const StyleConventions& conv = {});

/// Register the style's operators and query functions on an interpreter,
/// each checking its arity at dispatch. `queries` may be null (model-only
/// mode: addServer synthesizes names, and the group queries read the model
/// instead of the runtime). `min_bandwidth` is the task layer's threshold
/// (task::PerformanceProfile::min_bandwidth) a recruited server must offer;
/// `load_improvement` is the queue-length advantage a load-balancing move
/// must gain (RepairEngineConfig::load_improvement).
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
