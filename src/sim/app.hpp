// The grid storage application of Section 1: users (clients) send small
// requests to a request-queue machine, which splits them into per-server-
// group FIFO queues; replicated servers pull requests, process them, and
// stream the (much larger) result directly back to the requesting user.
//
// This is the *runtime layer*: it knows nothing about architectural models
// or repairs. Reconfiguration entry points (move_client, activate_server,
// ...) correspond one-to-one to the change operations the paper's Java
// implementation exposed via RMI (Table 1); the EnvironmentManager in
// src/runtime wraps them.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/deterministic_rng.hpp"

namespace arcadia::sim {

using ClientIdx = std::int32_t;
using ServerIdx = std::int32_t;
using GroupIdx = std::int32_t;
inline constexpr GroupIdx kNoGroup = -1;

/// One client request through its whole life cycle.
struct Request {
  std::uint64_t id = 0;
  ClientIdx client = -1;
  DataSize request_size;
  DataSize response_size;
  SimTime created;            ///< client issued the request
  SimTime enqueued;           ///< arrived at the request-queue machine
  SimTime dequeued;           ///< a server pulled it
  SimTime service_done;       ///< server finished computing
  SimTime completed;          ///< response fully delivered to the client
  GroupIdx served_by_group = kNoGroup;
  ServerIdx served_by = -1;

  SimTime latency() const { return completed - created; }
  SimTime queue_wait() const { return dequeued - enqueued; }
};

/// Tunables for the application; scenario.cpp fills these from the paper's
/// parameters.
struct AppConfig {
  /// Service time = service_base + response_size * service_per_kb, then
  /// multiplied by lognormal(1, sigma) jitter. Size-dependent service is
  /// what couples the paper's "increase the file request size" stress to
  /// server load.
  SimTime service_base = SimTime::millis(50);
  SimTime service_per_kb = SimTime::millis(20);
  double service_sigma = 0.2;
  std::uint64_t seed = 1;
};

/// Aggregate counters per client, exposed for tests and reports.
struct ClientStats {
  std::uint64_t completed = 0;
  double latency_sum_s = 0.0;
};

class GridApp {
 public:
  GridApp(Simulator& sim, FlowNetwork& net, AppConfig config);

  // ---- construction (before the run) ----
  ClientIdx add_client(const std::string& name, NodeId node);
  GroupIdx add_group(const std::string& name);
  /// Add a server machine. `group` may be kNoGroup for a spare; spares
  /// start inactive regardless of `active`.
  ServerIdx add_server(const std::string& name, NodeId node, GroupIdx group,
                       bool active);
  void set_queue_node(NodeId node);
  /// Initial client -> group assignment.
  void assign_client(ClientIdx c, GroupIdx g);

  // ---- workload entry point ----
  /// Issue one request now; the request body travels to the queue machine
  /// over the network, is enqueued, served FIFO, and answered directly.
  void issue_request(ClientIdx c, DataSize request_size, DataSize response_size);

  // ---- reconfiguration operations (the runtime halves of Table 1) ----
  /// Future requests from c are routed to group g's queue. Requests already
  /// queued, in service, or in flight are unaffected (as on the testbed).
  void move_client(ClientIdx c, GroupIdx g);
  /// Re-home a server onto group g's queue. Takes effect after any request
  /// currently in service.
  void connect_server(ServerIdx s, GroupIdx g);
  /// Server begins pulling requests from its connected queue.
  void activate_server(ServerIdx s);
  /// Server stops pulling after finishing its current request.
  void deactivate_server(ServerIdx s);
  /// Mark a server failed (FaultDriver outages): it leaves the recruitable
  /// spare pool and activate_server throws until the fault clears.
  /// Clearing does not reactivate — that is the fault driver's decision.
  void set_server_failed(ServerIdx s, bool failed);
  /// Add a new (empty) request queue == a new server group.
  GroupIdx create_group(const std::string& name);

  // ---- queries ----
  std::size_t client_count() const { return clients_.size(); }
  std::size_t server_count() const { return servers_.size(); }
  std::size_t group_count() const { return groups_.size(); }
  const std::string& client_name(ClientIdx c) const;
  const std::string& server_name(ServerIdx s) const;
  const std::string& group_name(GroupIdx g) const;
  /// Reverse lookups; return -1 / kNoGroup when absent.
  ClientIdx find_client(const std::string& name) const;
  ServerIdx find_server(const std::string& name) const;
  GroupIdx find_group(const std::string& name) const;
  NodeId client_node(ClientIdx c) const;
  NodeId server_node(ServerIdx s) const;
  NodeId queue_node() const { return queue_node_; }
  /// A group's "location" for bandwidth purposes: the node of its first
  /// active server (falls back to the queue machine when empty).
  NodeId group_node(GroupIdx g) const;

  GroupIdx client_group(ClientIdx c) const;
  GroupIdx server_group(ServerIdx s) const;
  bool server_active(ServerIdx s) const;
  bool server_failed(ServerIdx s) const;
  bool server_busy(ServerIdx s) const;
  std::size_t queue_length(GroupIdx g) const;
  std::vector<ServerIdx> active_servers(GroupIdx g) const;
  std::vector<ClientIdx> clients_assigned(GroupIdx g) const;
  /// Inactive, non-failed servers not currently assigned work — the
  /// recruitable pool.
  std::vector<ServerIdx> spare_servers() const;
  /// Fraction of active servers currently busy, in [0,1]; 0 for no actives.
  double group_utilization(GroupIdx g) const;
  const ClientStats& client_stats(ClientIdx c) const;
  std::uint64_t total_completed() const { return total_completed_; }
  std::uint64_t total_issued() const { return next_request_id_; }
  /// Responses finished computing but still queued on one of the client's
  /// server connections (per-connection in-order delivery).
  std::size_t pending_responses(ClientIdx c) const;
  /// Requests issued but not yet answered.
  std::size_t outstanding_requests(ClientIdx c) const;
  /// Age of the client's oldest unanswered request (zero when none). This
  /// is what a latency probe can observe even when responses have stopped
  /// arriving entirely — a starved client must still be detectable.
  SimTime oldest_outstanding_age(ClientIdx c) const;

  // ---- instrumentation hooks (the probe attachment points) ----
  /// Fired when a response is fully delivered.
  std::function<void(const Request&)> on_response;
  /// Fired when a server starts/stops being active.
  std::function<void(ServerIdx, bool active)> on_server_state;

 private:
  struct PendingResponse {
    Request req;
    NodeId from_node;
  };
  /// One server<->client connection: responses from a given server to a
  /// given client deliver in order, but different servers' connections
  /// transfer in parallel (each server held its own socket on the
  /// testbed). This bounds concurrent flows without cross-group
  /// head-of-line blocking after a move.
  struct Conn {
    bool busy = false;
    std::deque<PendingResponse> queue;
  };
  struct Client {
    std::string name;
    NodeId node;
    GroupIdx group = kNoGroup;
    std::map<ServerIdx, Conn> conns;
    /// Unanswered requests: id -> creation time (insertion-ordered ids).
    std::map<std::uint64_t, SimTime> outstanding;
    ClientStats stats;
  };
  struct Group {
    std::string name;
    std::deque<Request> queue;
    std::vector<ServerIdx> members;
    std::uint64_t served = 0;
  };
  struct Server {
    std::string name;
    NodeId node;
    GroupIdx group = kNoGroup;
    bool active = false;
    bool busy = false;
    bool failed = false;
    bool deactivate_requested = false;
    Rng rng;
    std::uint64_t served = 0;
  };

  void arrival_at_queue(Request req);
  void wake_group(GroupIdx g);
  void try_pull(ServerIdx s);
  void begin_service(ServerIdx s, Request req);
  void finish_service(ServerIdx s, Request req);
  void push_response(ClientIdx c, ServerIdx s, PendingResponse pr);
  void start_next_response(ClientIdx c, ServerIdx s);
  SimTime draw_service_time(Server& s, DataSize response_size);

  Simulator& sim_;
  FlowNetwork& net_;
  AppConfig config_;
  Rng master_rng_;
  std::vector<Client> clients_;
  std::vector<Group> groups_;
  std::vector<Server> servers_;
  NodeId queue_node_ = kNoNode;
  std::uint64_t next_request_id_ = 0;
  std::uint64_t total_completed_ = 0;
};

}  // namespace arcadia::sim
