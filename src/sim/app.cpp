#include "sim/app.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/log.hpp"

namespace arcadia::sim {

namespace {
/// Control-plane latency for a server to pull a request from the queue
/// machine (small; the request has already been shipped to the queue).
constexpr SimTime kPullDelay = SimTime::millis(5);
}  // namespace

GridApp::GridApp(Simulator& sim, FlowNetwork& net, AppConfig config)
    : sim_(sim), net_(net), config_(config), master_rng_(config.seed) {}

ClientIdx GridApp::add_client(const std::string& name, NodeId node) {
  Client c;
  c.name = name;
  c.node = node;
  clients_.push_back(std::move(c));
  return static_cast<ClientIdx>(clients_.size() - 1);
}

GroupIdx GridApp::add_group(const std::string& name) {
  Group g;
  g.name = name;
  groups_.push_back(std::move(g));
  return static_cast<GroupIdx>(groups_.size() - 1);
}

ServerIdx GridApp::add_server(const std::string& name, NodeId node,
                              GroupIdx group, bool active) {
  Server s;
  s.name = name;
  s.node = node;
  s.group = group;
  s.active = active && group != kNoGroup;
  s.rng = master_rng_.fork(servers_.size() + 1000);
  servers_.push_back(std::move(s));
  ServerIdx idx = static_cast<ServerIdx>(servers_.size() - 1);
  if (group != kNoGroup) groups_.at(group).members.push_back(idx);
  return idx;
}

void GridApp::set_queue_node(NodeId node) { queue_node_ = node; }

void GridApp::assign_client(ClientIdx c, GroupIdx g) {
  clients_.at(c).group = g;
  (void)groups_.at(g);
}

void GridApp::issue_request(ClientIdx c, DataSize request_size,
                            DataSize response_size) {
  if (queue_node_ == kNoNode) throw SimError("GridApp: queue node not set");
  Client& client = clients_.at(c);
  if (client.group == kNoGroup) {
    throw SimError("client " + client.name + " has no server group");
  }
  Request req;
  req.id = next_request_id_++;
  req.client = c;
  req.request_size = request_size;
  req.response_size = response_size;
  req.created = sim_.now();
  client.outstanding.emplace(req.id, req.created);
  // Ship the request body to the queue machine; group routing happens on
  // arrival, so a move_client issued while the request is in flight applies.
  net_.start_transfer(client.node, queue_node_, request_size,
                      [this, req]() mutable { arrival_at_queue(req); });
}

void GridApp::arrival_at_queue(Request req) {
  req.enqueued = sim_.now();
  const GroupIdx g = clients_.at(req.client).group;
  groups_.at(g).queue.push_back(req);
  wake_group(g);
}

void GridApp::wake_group(GroupIdx g) {
  for (ServerIdx s : groups_.at(g).members) {
    if (groups_.at(g).queue.empty()) break;
    try_pull(s);
  }
}

void GridApp::try_pull(ServerIdx s) {
  Server& server = servers_.at(s);
  if (!server.active || server.busy || server.group == kNoGroup) return;
  Group& group = groups_.at(server.group);
  if (group.queue.empty()) return;
  Request req = group.queue.front();
  group.queue.pop_front();
  server.busy = true;
  // Pulling the request descriptor from the queue machine costs a small
  // control-plane round trip.
  sim_.schedule_in(kPullDelay,
                   [this, s, req]() mutable { begin_service(s, req); });
}

void GridApp::begin_service(ServerIdx s, Request req) {
  Server& server = servers_.at(s);
  req.dequeued = sim_.now();
  req.served_by = s;
  req.served_by_group = server.group;
  SimTime service = draw_service_time(server, req.response_size);
  sim_.schedule_in(service,
                   [this, s, req]() mutable { finish_service(s, req); });
}

void GridApp::finish_service(ServerIdx s, Request req) {
  Server& server = servers_.at(s);
  req.service_done = sim_.now();
  ++server.served;
  if (req.served_by_group != kNoGroup) ++groups_.at(req.served_by_group).served;
  // Hand the response to this server's connection to the client; the
  // server is then free to pull the next request (asynchronous send,
  // in-order delivery per server<->client connection).
  push_response(req.client, s, PendingResponse{req, server.node});
  server.busy = false;
  if (server.deactivate_requested) {
    server.deactivate_requested = false;
    server.active = false;
    if (on_server_state) on_server_state(s, false);
    return;
  }
  try_pull(s);
}

void GridApp::push_response(ClientIdx c, ServerIdx s, PendingResponse pr) {
  Conn& conn = clients_.at(c).conns[s];
  conn.queue.push_back(std::move(pr));
  if (!conn.busy) start_next_response(c, s);
}

void GridApp::start_next_response(ClientIdx c, ServerIdx s) {
  Client& client = clients_.at(c);
  Conn& conn = client.conns[s];
  if (conn.queue.empty()) {
    conn.busy = false;
    return;
  }
  conn.busy = true;
  PendingResponse pr = std::move(conn.queue.front());
  conn.queue.pop_front();
  const DataSize size = pr.req.response_size;
  const NodeId from = pr.from_node;
  net_.start_transfer(from, client.node, size,
                      [this, c, s, req = pr.req]() mutable {
    req.completed = sim_.now();
    Client& cl = clients_.at(c);
    ++cl.stats.completed;
    cl.stats.latency_sum_s += req.latency().as_seconds();
    cl.outstanding.erase(req.id);
    ++total_completed_;
    if (on_response) on_response(req);
    start_next_response(c, s);
  });
}

SimTime GridApp::draw_service_time(Server& s, DataSize response_size) {
  const double nominal_s = config_.service_base.as_seconds() +
                           config_.service_per_kb.as_seconds() *
                               response_size.as_kilobytes();
  const double jitter =
      config_.service_sigma > 0.0
          ? s.rng.lognormal_with_mean(1.0, config_.service_sigma)
          : 1.0;
  return SimTime::seconds(nominal_s * jitter);
}

void GridApp::move_client(ClientIdx c, GroupIdx g) {
  Client& client = clients_.at(c);
  (void)groups_.at(g);
  ARC_DEBUG << "app: move " << client.name << " -> " << groups_[g].name;
  client.group = g;
}

void GridApp::connect_server(ServerIdx s, GroupIdx g) {
  Server& server = servers_.at(s);
  (void)groups_.at(g);
  if (server.group == g) return;
  if (server.group != kNoGroup) {
    auto& members = groups_.at(server.group).members;
    members.erase(std::remove(members.begin(), members.end(), s),
                  members.end());
  }
  server.group = g;
  groups_.at(g).members.push_back(s);
  if (server.active && !server.busy) try_pull(s);
}

void GridApp::activate_server(ServerIdx s) {
  Server& server = servers_.at(s);
  if (server.failed) {
    throw SimError("activate_server(" + server.name + "): machine is down");
  }
  if (server.group == kNoGroup) {
    throw SimError("activate_server(" + server.name + "): not connected to a queue");
  }
  server.deactivate_requested = false;
  if (server.active) return;
  server.active = true;
  if (on_server_state) on_server_state(s, true);
  try_pull(s);
}

void GridApp::deactivate_server(ServerIdx s) {
  Server& server = servers_.at(s);
  if (!server.active) return;
  if (server.busy) {
    server.deactivate_requested = true;
  } else {
    server.active = false;
    if (on_server_state) on_server_state(s, false);
  }
}

void GridApp::set_server_failed(ServerIdx s, bool failed) {
  servers_.at(s).failed = failed;
}

GroupIdx GridApp::create_group(const std::string& name) {
  return add_group(name);
}

const std::string& GridApp::client_name(ClientIdx c) const {
  return clients_.at(c).name;
}
const std::string& GridApp::server_name(ServerIdx s) const {
  return servers_.at(s).name;
}
const std::string& GridApp::group_name(GroupIdx g) const {
  return groups_.at(g).name;
}

ClientIdx GridApp::find_client(const std::string& name) const {
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    if (clients_[i].name == name) return static_cast<ClientIdx>(i);
  }
  return -1;
}
ServerIdx GridApp::find_server(const std::string& name) const {
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (servers_[i].name == name) return static_cast<ServerIdx>(i);
  }
  return -1;
}
GroupIdx GridApp::find_group(const std::string& name) const {
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (groups_[i].name == name) return static_cast<GroupIdx>(i);
  }
  return kNoGroup;
}

NodeId GridApp::client_node(ClientIdx c) const { return clients_.at(c).node; }
NodeId GridApp::server_node(ServerIdx s) const { return servers_.at(s).node; }

NodeId GridApp::group_node(GroupIdx g) const {
  for (ServerIdx s : groups_.at(g).members) {
    if (servers_[s].active) return servers_[s].node;
  }
  return queue_node_;
}

GroupIdx GridApp::client_group(ClientIdx c) const { return clients_.at(c).group; }
GroupIdx GridApp::server_group(ServerIdx s) const { return servers_.at(s).group; }
bool GridApp::server_active(ServerIdx s) const { return servers_.at(s).active; }
bool GridApp::server_failed(ServerIdx s) const { return servers_.at(s).failed; }
bool GridApp::server_busy(ServerIdx s) const { return servers_.at(s).busy; }

std::size_t GridApp::queue_length(GroupIdx g) const {
  return groups_.at(g).queue.size();
}

std::vector<ServerIdx> GridApp::active_servers(GroupIdx g) const {
  std::vector<ServerIdx> out;
  for (ServerIdx s : groups_.at(g).members) {
    if (servers_[s].active) out.push_back(s);
  }
  return out;
}

std::vector<ClientIdx> GridApp::clients_assigned(GroupIdx g) const {
  std::vector<ClientIdx> out;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    if (clients_[i].group == g) out.push_back(static_cast<ClientIdx>(i));
  }
  return out;
}

std::vector<ServerIdx> GridApp::spare_servers() const {
  std::vector<ServerIdx> out;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (!servers_[i].active && !servers_[i].busy && !servers_[i].failed) {
      out.push_back(static_cast<ServerIdx>(i));
    }
  }
  return out;
}

double GridApp::group_utilization(GroupIdx g) const {
  std::size_t active = 0;
  std::size_t busy = 0;
  for (ServerIdx s : groups_.at(g).members) {
    if (!servers_[s].active) continue;
    ++active;
    if (servers_[s].busy) ++busy;
  }
  if (active == 0) return 0.0;
  return static_cast<double>(busy) / static_cast<double>(active);
}

const ClientStats& GridApp::client_stats(ClientIdx c) const {
  return clients_.at(c).stats;
}

std::size_t GridApp::outstanding_requests(ClientIdx c) const {
  return clients_.at(c).outstanding.size();
}

SimTime GridApp::oldest_outstanding_age(ClientIdx c) const {
  const Client& client = clients_.at(c);
  if (client.outstanding.empty()) return SimTime::zero();
  // Ids are issued in time order, so the first entry is the oldest.
  return sim_.now() - client.outstanding.begin()->second;
}

std::size_t GridApp::pending_responses(ClientIdx c) const {
  const Client& client = clients_.at(c);
  std::size_t total = 0;
  for (const auto& [s, conn] : client.conns) {
    total += conn.queue.size() + (conn.busy ? 1 : 0);
  }
  return total;
}

}  // namespace arcadia::sim
