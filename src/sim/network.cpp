#include "sim/network.hpp"

#include <algorithm>
#include <cmath>
#include <deque>

namespace arcadia::sim {

NodeId Topology::add_node(const std::string& name, NodeKind kind) {
  if (routes_ready_) throw SimError("Topology frozen: routes already computed");
  if (by_name_.count(name)) throw SimError("duplicate node name: " + name);
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{name, kind, {}});
  by_name_[name] = id;
  return id;
}

LinkId Topology::add_link(NodeId a, NodeId b, Bandwidth capacity) {
  if (routes_ready_) throw SimError("Topology frozen: routes already computed");
  if (a == b) throw SimError("self-link at node " + node_name(a));
  if (a < 0 || b < 0 || a >= static_cast<NodeId>(nodes_.size()) ||
      b >= static_cast<NodeId>(nodes_.size())) {
    throw SimError("add_link: bad node id");
  }
  LinkId id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{a, b, capacity});
  nodes_[a].adj.emplace_back(b, id);
  nodes_[b].adj.emplace_back(a, id);
  return id;
}

NodeId Topology::find_node(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kNoNode : it->second;
}

std::pair<NodeId, NodeId> Topology::channel_endpoints(ChannelId c) const {
  const Link& l = links_.at(c / 2);
  if (c % 2 == 0) return {l.a, l.b};
  return {l.b, l.a};
}

void Topology::compute_routes() {
  // The topology is frozen once routed, so a second BFS would compute the
  // same tables; returning early keeps every path() reference alive.
  if (routes_ready_) return;
  const std::size_t n = nodes_.size();
  parent_node_.assign(n * n, kNoNode);
  parent_link_.assign(n * n, -1);
  path_rows_.assign(n, {});
  // BFS from every source; deterministic neighbor order = insertion order.
  // Only the predecessor matrices are kept; channel sequences materialize
  // on demand in path().
  for (NodeId src = 0; src < static_cast<NodeId>(n); ++src) {
    NodeId* prev_node = parent_node_.data() + static_cast<std::size_t>(src) * n;
    LinkId* prev_link = parent_link_.data() + static_cast<std::size_t>(src) * n;
    std::vector<bool> seen(n, false);
    std::deque<NodeId> frontier{src};
    seen[src] = true;
    while (!frontier.empty()) {
      NodeId u = frontier.front();
      frontier.pop_front();
      for (const auto& [v, link] : nodes_[u].adj) {
        if (seen[v]) continue;
        seen[v] = true;
        prev_node[v] = u;
        prev_link[v] = link;
        frontier.push_back(v);
      }
    }
  }
  routes_ready_ = true;
}

const std::vector<ChannelId>& Topology::path(NodeId src, NodeId dst) const {
  // Hot path: a materialized pair is two indexings. Out-of-range ids (and
  // every id before compute_routes, when there are no rows) miss here.
  if (static_cast<std::size_t>(src) < path_rows_.size()) {
    const std::vector<std::int32_t>& row = path_rows_[src];
    if (static_cast<std::size_t>(dst) < row.size() && row[dst] >= 0) {
      return path_arena_[row[dst]];
    }
  }
  return materialize(src, dst);
}

const std::vector<ChannelId>& Topology::materialize(NodeId src,
                                                     NodeId dst) const {
  if (!routes_ready_) throw SimError("Topology::path before compute_routes");
  const std::size_t n = nodes_.size();
  if (src < 0 || dst < 0 || src >= static_cast<NodeId>(n) ||
      dst >= static_cast<NodeId>(n)) {
    throw SimError("path: bad node id");
  }
  if (src == dst) return empty_path_;
  const NodeId* prev_node =
      parent_node_.data() + static_cast<std::size_t>(src) * n;
  const LinkId* prev_link =
      parent_link_.data() + static_cast<std::size_t>(src) * n;
  if (prev_node[dst] == kNoNode) {
    throw SimError("no route " + node_name(src) + " -> " + node_name(dst));
  }
  // Backtrack the predecessor chain dst -> src; identical construction (and
  // therefore identical channel sequence) to an eager all-pairs table.
  std::vector<ChannelId> rev;
  for (NodeId cur = dst; cur != src; cur = prev_node[cur]) {
    LinkId link = prev_link[cur];
    NodeId from = prev_node[cur];
    // channel direction: even = a->b, odd = b->a
    ChannelId chan = (links_[link].a == from) ? link * 2 : link * 2 + 1;
    rev.push_back(chan);
  }
  std::reverse(rev.begin(), rev.end());
  std::vector<std::int32_t>& row = path_rows_[src];
  if (row.empty()) row.assign(n, -1);
  row[dst] = static_cast<std::int32_t>(path_arena_.size());
  return path_arena_.emplace_back(std::move(rev));
}

FlowNetwork::FlowNetwork(Simulator& sim, const Topology& topo)
    : sim_(sim), topo_(topo) {
  if (!topo_.routes_ready()) {
    throw SimError("FlowNetwork requires Topology::compute_routes()");
  }
  const std::size_t channels = topo_.channel_count();
  capacity_.resize(channels);
  residual_.resize(channels);
  load_.resize(channels);
  bottleneck_.resize(channels);
  active_mark_.resize(channels);
  active_.reserve(channels);
  refresh_capacity();
}

FlowId FlowNetwork::start_transfer(NodeId src, NodeId dst, DataSize size,
                                   std::function<void()> on_complete) {
  FlowId id = next_id_++;
  ++stats_.transfers_started;
  if (src == dst) {
    // Local delivery: no network resources consumed.
    sim_.schedule_in(loopback_delay_, [cb = std::move(on_complete), this] {
      ++stats_.transfers_completed;
      cb();
    });
    return id;
  }
  Transfer t;
  t.src = src;
  t.dst = dst;
  t.remaining_bits = size.as_bits();
  t.last_update = sim_.now();
  t.on_complete = std::move(on_complete);
  t.path = &topo_.path(src, dst);
  transfers_.emplace(id, std::move(t));
  reallocate();
  return id;
}

void FlowNetwork::cancel_transfer(FlowId id) {
  auto it = transfers_.find(id);
  if (it == transfers_.end()) return;
  it->second.completion.cancel();
  transfers_.erase(it);
  reallocate();
}

FlowId FlowNetwork::add_background(NodeId src, NodeId dst) {
  if (src == dst) throw SimError("background flow with src == dst");
  FlowId id = next_id_++;
  Background b;
  b.src = src;
  b.dst = dst;
  b.path = &topo_.path(src, dst);
  backgrounds_.emplace(id, std::move(b));
  refresh_capacity();
  return id;
}

void FlowNetwork::set_background_rate(FlowId id, Bandwidth rate) {
  auto it = backgrounds_.find(id);
  if (it == backgrounds_.end()) throw SimError("unknown background flow");
  if (it->second.rate_bps == rate.as_bps()) return;
  it->second.rate_bps = rate.as_bps();
  refresh_capacity();
  reallocate();
}

Bandwidth FlowNetwork::background_rate(FlowId id) const {
  auto it = backgrounds_.find(id);
  return it == backgrounds_.end() ? Bandwidth::zero()
                                  : Bandwidth::bps(it->second.rate_bps);
}

Bandwidth FlowNetwork::transfer_rate(FlowId id) const {
  auto it = transfers_.find(id);
  return it == transfers_.end() ? Bandwidth::zero()
                                : Bandwidth::bps(it->second.rate_bps);
}

DataSize FlowNetwork::transfer_remaining(FlowId id) const {
  auto it = transfers_.find(id);
  if (it == transfers_.end()) return DataSize::zero();
  const Transfer& t = it->second;
  double elapsed = (sim_.now() - t.last_update).as_seconds();
  double remaining = std::max(0.0, t.remaining_bits - t.rate_bps * elapsed);
  return DataSize::bytes(remaining / 8.0);
}

void FlowNetwork::refresh_capacity() {
  for (ChannelId c = 0; c < static_cast<ChannelId>(capacity_.size()); ++c) {
    capacity_[c] = topo_.channel_capacity(c).as_bps();
  }
  // Background demand per channel; if oversubscribed, scale pro-rata (a
  // non-responsive blast cannot push more than the wire carries).
  std::vector<double> bg(capacity_.size(), 0.0);
  for (const auto& [id, b] : backgrounds_) {
    for (ChannelId c : *b.path) bg[c] += b.rate_bps;
  }
  for (std::size_t c = 0; c < capacity_.size(); ++c) {
    capacity_[c] = std::max(0.0, capacity_[c] - std::min(bg[c], capacity_[c]));
  }
}

void FlowNetwork::reallocate() {
  ++stats_.reallocations;

  // Guard: a channel fully consumed by background still trickles, otherwise
  // transfers on it would never complete and the event queue would stall.
  const double kTrickleBps = 1.0;

  // Progressive filling (water-filling) max-min fairness. All application
  // transfers are greedy (infinite demand), so each round saturates at least
  // one channel and freezes the flows crossing it. Only the channels some
  // transfer crosses can bound a share, so the rounds run over those alone;
  // each channel's residual sees the same subtractions in the same order as
  // a whole-topology sweep would, which keeps the rates bit-identical.
  ++epoch_;
  active_.clear();
  unfrozen_.clear();
  const SimTime now = sim_.now();
  // transfers_ is ordered by FlowId, so this is already the deterministic
  // (arrival-order) sequence — no compensating sort needed. Each transfer
  // first banks the bits it moved at its old rate since the last update.
  for (auto& [id, t] : transfers_) {
    double elapsed = (now - t.last_update).as_seconds();
    if (elapsed > 0.0) {
      t.remaining_bits = std::max(0.0, t.remaining_bits - t.rate_bps * elapsed);
    }
    t.last_update = now;
    t.rate_bps = 0.0;
    unfrozen_.push_back(&t);
    for (ChannelId c : *t.path) {
      if (active_mark_[c] == epoch_) continue;
      active_mark_[c] = epoch_;
      active_.push_back(c);
      residual_[c] = capacity_[c];
    }
  }

  while (!unfrozen_.empty()) {
    ++stats_.waterfill_rounds;
    for (ChannelId c : active_) load_[c] = 0;
    for (const Transfer* t : unfrozen_) {
      for (ChannelId c : *t->path) ++load_[c];
    }
    double share = std::numeric_limits<double>::infinity();
    for (ChannelId c : active_) {
      if (load_[c] == 0) continue;
      share = std::min(share, std::max(residual_[c], 0.0) / load_[c]);
    }
    if (!std::isfinite(share)) break;  // no unfrozen flow crosses any channel
    share = std::max(share, kTrickleBps);
    // Identify the bottleneck channels of this round against the pristine
    // residuals, then freeze the flows crossing them. (Deciding and
    // subtracting must be separate passes: subtracting while scanning
    // would make later flows see already-reduced residuals and freeze on
    // channels that are not actually saturated.)
    for (ChannelId c : active_) {
      bottleneck_[c] =
          load_[c] != 0 && std::max(residual_[c], 0.0) / load_[c] <=
                               share * (1.0 + 1e-12) + 1e-9;
    }
    still_.clear();
    frozen_now_.clear();
    for (Transfer* t : unfrozen_) {
      bool crosses = false;
      for (ChannelId c : *t->path) {
        if (bottleneck_[c]) {
          crosses = true;
          break;
        }
      }
      (crosses ? frozen_now_ : still_).push_back(t);
    }
    if (frozen_now_.empty()) {
      // Numerical safety net (should not happen): freeze everything.
      frozen_now_.swap(still_);
    }
    for (Transfer* t : frozen_now_) {
      t->rate_bps = share;
      for (ChannelId c : *t->path) residual_[c] -= share;
    }
    unfrozen_.swap(still_);
  }

  for (auto& [id, t] : transfers_) schedule_completion(id, t);
}

void FlowNetwork::schedule_completion(FlowId id, Transfer& t) {
  t.completion.cancel();
  SimTime eta = transfer_time(DataSize::bytes(t.remaining_bits / 8.0),
                              Bandwidth::bps(t.rate_bps));
  if (eta.is_infinite()) return;  // will be rescheduled on the next reallocate
  t.completion = sim_.schedule_in(eta, [this, id] { complete_transfer(id); });
}

void FlowNetwork::complete_transfer(FlowId id) {
  auto it = transfers_.find(id);
  if (it == transfers_.end()) return;
  std::function<void()> cb = std::move(it->second.on_complete);
  transfers_.erase(it);
  ++stats_.transfers_completed;
  reallocate();
  if (cb) cb();
}

// The two path queries visit only the queried path's channels. Each channel
// accumulates exactly the terms, in exactly the order, of a whole-topology
// sweep (capacity, then backgrounds by id, then transfers by FlowId), so the
// answer is bit-identical to one.
Bandwidth FlowNetwork::available_bandwidth(NodeId src, NodeId dst) const {
  if (src == dst) return Bandwidth::infinity();
  double avail = std::numeric_limits<double>::infinity();
  for (ChannelId c : topo_.path(src, dst)) {
    double residual = capacity_[c];
    for (const auto& [id, t] : transfers_) {
      for (ChannelId tc : *t.path) {
        if (tc == c) residual -= t.rate_bps;
      }
    }
    avail = std::min(avail, residual);
  }
  return Bandwidth::bps(std::max(avail, floor_.as_bps()));
}

double FlowNetwork::path_utilization(NodeId src, NodeId dst) const {
  if (src == dst) return 0.0;
  double worst = 0.0;
  for (ChannelId c : topo_.path(src, dst)) {
    double used = 0.0;
    for (const auto& [id, b] : backgrounds_) {
      for (ChannelId bc : *b.path) {
        if (bc == c) used += b.rate_bps;
      }
    }
    for (const auto& [id, t] : transfers_) {
      for (ChannelId tc : *t.path) {
        if (tc == c) used += t.rate_bps;
      }
    }
    double cap = topo_.channel_capacity(c).as_bps();
    if (cap > 0.0) worst = std::max(worst, std::min(used / cap, 1.0));
  }
  return worst;
}

}  // namespace arcadia::sim
