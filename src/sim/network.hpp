// Flow-level network model. Links are full-duplex (a capacity per
// direction); application transfers share each directed channel max-min
// fairly, while background "competition" traffic is non-responsive: it takes
// its configured rate off the top, exactly like the constant-rate competition
// generator the paper ran on its testbed (Section 5.1). Available bandwidth
// — what Remos predicts — is the residual capacity a new flow would see.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace arcadia::sim {

using NodeId = std::int32_t;
using LinkId = std::int32_t;
/// A directed half of a link: link*2 (a->b) or link*2+1 (b->a).
using ChannelId = std::int32_t;
using FlowId = std::int64_t;

inline constexpr NodeId kNoNode = -1;
inline constexpr FlowId kNoFlow = -1;

enum class NodeKind { Host, Router };

/// Static topology plus shortest-path routing. Routes are computed once
/// (hop-count BFS, deterministic tie-break by node id) and are stable for
/// the lifetime of the topology — the testbed's static routing.
class Topology {
 public:
  NodeId add_node(const std::string& name, NodeKind kind);
  LinkId add_link(NodeId a, NodeId b, Bandwidth capacity_per_direction);

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t link_count() const { return links_.size(); }
  std::size_t channel_count() const { return links_.size() * 2; }

  const std::string& node_name(NodeId n) const { return nodes_.at(n).name; }
  NodeKind node_kind(NodeId n) const { return nodes_.at(n).kind; }
  /// Lookup by name; returns kNoNode if absent.
  NodeId find_node(const std::string& name) const;

  Bandwidth channel_capacity(ChannelId c) const {
    return links_.at(c / 2).capacity;
  }
  std::pair<NodeId, NodeId> channel_endpoints(ChannelId c) const;

  /// Finalize routing: run the all-pairs BFS and keep only the parent
  /// matrices (predecessor node + link per source). Must be called after
  /// the last add_*; path() throws before this, and a repeat call is a
  /// no-op (it must not free paths a FlowNetwork holds). Channel sequences are
  /// materialized lazily per (src, dst) pair on first use, and only sources
  /// that are used get a row of the path table — a fleet of 64 tenant
  /// topologies only ever asks for the pairs its workload actually
  /// exercises, so an eager O(n^2) path table (hundreds of MB at
  /// fleet-64x256 scale) never gets built.
  void compute_routes();
  bool routes_ready() const { return routes_ready_; }

  /// Directed channel sequence from src to dst (empty when src == dst).
  /// Throws SimError if unreachable. The returned reference is stable for
  /// the lifetime of the topology (FlowNetwork caches the pointer). Not
  /// thread-safe: confine each topology to its owning shard's lane.
  const std::vector<ChannelId>& path(NodeId src, NodeId dst) const;

  /// Number of (src, dst) channel sequences materialized so far.
  std::size_t materialized_paths() const { return path_arena_.size(); }

 private:
  struct Node {
    std::string name;
    NodeKind kind;
    std::vector<std::pair<NodeId, LinkId>> adj;  // neighbor, link
  };
  struct Link {
    NodeId a;
    NodeId b;
    Bandwidth capacity;
  };

  /// path()'s miss path: validates the pair, then builds and files its
  /// channel sequence (or returns the empty path when src == dst).
  const std::vector<ChannelId>& materialize(NodeId src, NodeId dst) const;

  std::vector<Node> nodes_;
  std::vector<Link> links_;
  // Ordered map: only build-time lookups, and keeping it ordered means no
  // hash-ordered container sits on the simulation path at all (arclint
  // rule `unordered-container` holds tree-wide).
  std::map<std::string, NodeId> by_name_;
  bool routes_ready_ = false;
  // BFS predecessor matrices, indexed [src * N + v]: the node before `v`
  // on the shortest path from `src`, and the link taken into `v`.
  std::vector<NodeId> parent_node_;
  std::vector<LinkId> parent_link_;
  // Lazily materialized channel sequences. path_rows_[src] is empty until
  // src is first used, then holds one index into path_arena_ per
  // destination (-1 = not yet materialized). A deque never moves its
  // elements on push_back, which is what makes path()'s returned reference
  // stable.
  mutable std::vector<std::vector<std::int32_t>> path_rows_;
  mutable std::deque<std::vector<ChannelId>> path_arena_;
  const std::vector<ChannelId> empty_path_{};
};

/// Statistics the benches report about the allocator.
struct FlowNetworkStats {
  std::uint64_t reallocations = 0;
  std::uint64_t transfers_started = 0;
  std::uint64_t transfers_completed = 0;
  std::uint64_t waterfill_rounds = 0;
};

/// Dynamic flow state over a Topology, integrated with the Simulator: every
/// transfer completion is an event; every flow arrival/departure/rate change
/// triggers a max-min reallocation and completion rescheduling. A
/// reallocation costs O(rounds x active channels + sum of path lengths) and,
/// once warm, allocates nothing; the topology's size only matters on
/// background changes (DESIGN.md, "Flow network").
class FlowNetwork {
 public:
  FlowNetwork(Simulator& sim, const Topology& topo);

  /// Start a finite transfer; `on_complete` fires (once) at delivery time.
  /// Same-node transfers complete after a configurable loopback delay.
  FlowId start_transfer(NodeId src, NodeId dst, DataSize size,
                        std::function<void()> on_complete);

  /// Abort a transfer; its completion callback never fires.
  void cancel_transfer(FlowId id);

  /// Register a persistent non-responsive background flow (rate 0 until
  /// set_background_rate is called).
  FlowId add_background(NodeId src, NodeId dst);
  void set_background_rate(FlowId id, Bandwidth rate);
  Bandwidth background_rate(FlowId id) const;

  /// Current allocated rate of an active transfer (0 if finished/unknown).
  Bandwidth transfer_rate(FlowId id) const;
  /// Bytes not yet delivered (as of now).
  DataSize transfer_remaining(FlowId id) const;
  std::size_t active_transfers() const { return transfers_.size(); }

  /// Residual bandwidth a new flow from src to dst would observe: the
  /// minimum over path channels of (capacity - background - transfer usage),
  /// floored at 100 bps so log-scale plots behave (the paper's Figure 10
  /// bottoms out around 100 bps). This is the Remos estimate.
  Bandwidth available_bandwidth(NodeId src, NodeId dst) const;

  /// Utilization in [0,1] of the most loaded channel along src->dst.
  double path_utilization(NodeId src, NodeId dst) const;

  const Topology& topology() const { return topo_; }
  const FlowNetworkStats& stats() const { return stats_; }

 private:
  struct Transfer {
    NodeId src;
    NodeId dst;
    double remaining_bits;
    double rate_bps = 0.0;
    SimTime last_update;
    std::function<void()> on_complete;
    EventHandle completion;
    const std::vector<ChannelId>* path;
  };
  struct Background {
    NodeId src;
    NodeId dst;
    double rate_bps = 0.0;
    const std::vector<ChannelId>* path;
  };

  void reallocate();
  void schedule_completion(FlowId id, Transfer& t);
  void complete_transfer(FlowId id);
  /// Recompute capacity_ from the raw link capacities and backgrounds_.
  void refresh_capacity();

  Simulator& sim_;
  const Topology& topo_;
  // Ordered by FlowId (ids are monotonic, so this is arrival order). The
  // allocator *iterates* these maps and the iteration order feeds both
  // floating-point accumulation (per-channel demand sums) and completion
  // scheduling — with a hash-ordered container the event sequence would
  // depend on the standard library's bucket layout. std::map makes every
  // walk deterministic by construction; flow counts are small (tens), so
  // the tree walk is not a hot-path concern.
  std::map<FlowId, Transfer> transfers_;
  std::map<FlowId, Background> backgrounds_;
  // Per-channel capacity left after background traffic. Backgrounds only
  // change through add_background/set_background_rate, which refresh it;
  // everything else reads it.
  std::vector<double> capacity_;
  // Water-fill scratch, sized once to channel_count() (indexed by channel)
  // or kept at its high-water mark (flow lists), so a warm reallocate()
  // allocates nothing. A channel is in active_ this reallocation iff
  // active_mark_[c] == epoch_.
  std::vector<double> residual_;
  std::vector<int> load_;
  std::vector<char> bottleneck_;
  std::vector<std::uint64_t> active_mark_;
  std::uint64_t epoch_ = 0;
  std::vector<ChannelId> active_;
  std::vector<Transfer*> unfrozen_;
  std::vector<Transfer*> still_;
  std::vector<Transfer*> frozen_now_;
  FlowId next_id_ = 1;
  Bandwidth floor_ = Bandwidth::bps(100.0);  ///< available_bandwidth floor
  SimTime loopback_delay_ = SimTime::millis(1.0);  ///< src == dst transfers
  FlowNetworkStats stats_;
};

}  // namespace arcadia::sim
