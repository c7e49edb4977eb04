// Simulated Remos (Lowekamp et al., Cluster Computing 1999): the resource
// query interface the paper uses as its network probe. remos_get_flow
// returns the predicted available bandwidth between two hosts.
//
// The paper's Section 5.3 calls out a behaviour this model reproduces: "The
// first Remos query for information about bandwidth between two nodes on
// the network takes several minutes because Remos needs to collect and
// analyze data. After this initial delay, the query is quite fast." and the
// mitigation: "we pre-queried Remos so that subsequent queries were much
// faster."
//
// Queries are synchronous against simulator state; each reports its
// modeled *cost* (collection delay) through last_query_cost() so callers —
// the repair engine in particular — can charge the delay to the operation
// that incurred it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace arcadia::remos {

struct RemosStats {
  std::uint64_t queries = 0;
  std::uint64_t cold_queries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t refreshes = 0;
};

class RemosService {
 public:
  /// Collection cost of the first query for a (src, dst) pair.
  static constexpr SimTime kFirstQueryCost = SimTime::seconds(60);
  /// Cost of queries against an already-collected pair.
  static constexpr SimTime kCachedQueryCost = SimTime::millis(10);
  /// How long a measurement stays fresh; a stale entry is re-measured at
  /// cached cost (Remos keeps collecting in the background once started).
  static constexpr SimTime kCacheTtl = SimTime::seconds(30);

  RemosService(sim::Simulator& sim, const sim::FlowNetwork& net);

  /// Predicted available bandwidth from src to dst (Table 1's
  /// remos_get_flow). Reads current simulator state; sets last_query_cost().
  Bandwidth get_flow(sim::NodeId src, sim::NodeId dst);

  /// The modeled latency of the most recent get_flow call.
  SimTime last_query_cost() const { return last_cost_; }

  /// Whether a pair has been collected (a query against it is fast).
  bool is_warm(sim::NodeId src, sim::NodeId dst) const;

  /// Warm a set of pairs up-front, as the paper's experiment did. Returns
  /// the modeled wall-clock cost of the warm-up (pairs collect in
  /// parallel: the cost of one cold query).
  SimTime prequery(const std::vector<std::pair<sim::NodeId, sim::NodeId>>& pairs);

  const RemosStats& stats() const { return stats_; }

 private:
  struct Entry {
    Bandwidth value;
    SimTime measured_at;
    bool warm = false;  ///< collected at least once
  };
  /// The cache slot for (src, dst), allocating src's row on first use;
  /// nullptr when either id is outside the topology.
  Entry* slot(sim::NodeId src, sim::NodeId dst);

  sim::Simulator& sim_;
  const sim::FlowNetwork& net_;
  // The cache: one row per source node, allocated on first use and indexed
  // by destination, so a lookup is two array indexings. The probes query
  // from a few group nodes, so only a few rows of node_count() entries
  // exist.
  std::vector<std::vector<Entry>> rows_;
  SimTime last_cost_;
  RemosStats stats_;
};

}  // namespace arcadia::remos
