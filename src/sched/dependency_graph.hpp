// Transaction dependency (conflict) graph H (§2.3): one node per
// transaction, an edge between transactions sharing at least one object,
// edge weight = distance in G between their home nodes.
//
// H is stored in CSR form (offsets + flat edge array) and built one row at
// a time, always over an explicit transaction subset: a batch instance
// (whole, or per subgrid / cluster / segment) or one streaming window
// (sim/runtime.hpp builds each window's H from its own members). Row i is
// the union of sorted neighbor lists, with i removed: for the
// object-conflict graph, the in-subset members of txns[i]'s objects; for
// the read/write variant (build_rw_dependency_graph), per object either all
// requesters (i writes it) or only its writers (i reads it). Every such
// list is strictly ascending — the object-conflict lists are gathered by
// one counting pass over the subset in ascending local order, and
// requesters are appended in id order — so a pairwise set_union-style
// merge yields the sorted, deduplicated row with no sort. Rows are staged
// as bare ids, the edge array is sized exactly, and distances come from
// one batched metric query per row (so DenseMetric streams whole matrix
// rows and AnalyticMetric runs one closed-form loop).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/instance.hpp"
#include "core/rw.hpp"
#include "graph/metric.hpp"
#include "util/telemetry.hpp"

namespace dtm {

struct DependencyEdge {
  /// LOCAL index of the conflicting transaction (position in
  /// DependencyGraph::txns, not a global TxnId).
  TxnId neighbor;
  Weight weight;
};

/// H restricted to a transaction subset (the Grid/Cluster/Star schedulers
/// build H per subgrid / per cluster / per segment, the streaming runtime
/// per scheduling window).
struct DependencyGraph {
  /// The transactions covered, ascending. neighbors(i) belongs to txns[i].
  std::vector<TxnId> txns;
  /// CSR: edges of local node i live at [offsets[i], offsets[i+1]).
  std::vector<std::uint32_t> offsets;
  std::vector<DependencyEdge> edges;
  /// h_max: heaviest edge (0 when conflict-free).
  Weight max_edge_weight = 0;
  /// Δ: max neighbor count.
  std::size_t max_degree = 0;

  std::span<const DependencyEdge> neighbors(std::size_t i) const {
    DTM_ASSERT(i + 1 < offsets.size());
    return {edges.data() + offsets[i], edges.data() + offsets[i + 1]};
  }

  std::size_t degree(std::size_t i) const {
    DTM_ASSERT(i + 1 < offsets.size());
    return offsets[i + 1] - offsets[i];
  }

  /// Γ = h_max · Δ (the paper's weighted degree; greedy uses Γ+1 colors).
  Weight weighted_degree() const {
    return max_edge_weight * static_cast<Weight>(max_degree);
  }

  std::size_t size() const { return txns.size(); }
};

/// Builds H over `subset` of `txns`, where transaction t is txns[t] (ids
/// == indices) and every object id is below `num_objects`. Distances come
/// from `metric`. Touches only the subset's own object lists: O(sum over
/// objects of the squared member count within the subset), the natural
/// conflict-graph size, plus an O(num_objects) table. Throws dtm::Error on
/// a duplicate or out-of-range id in `subset`, and on an out-of-range or
/// repeated object in a member's object list.
DependencyGraph build_dependency_graph(std::span<const Transaction> txns,
                                       std::size_t num_objects,
                                       const Metric& metric,
                                       std::span<const TxnId> subset);

/// H over `txns`, a subset of the instance's transactions.
DependencyGraph build_dependency_graph(const Instance& inst,
                                       const Metric& metric,
                                       std::span<const TxnId> txns);

/// Convenience overload over all transactions.
DependencyGraph build_dependency_graph(const Instance& inst,
                                       const Metric& metric);

/// H restricted to read/write conflicts over all transactions (local index
/// == TxnId): an edge between two requesters of an object iff at least one
/// of them writes it (read-read pairs commute). `writes` is sized
/// inst.num_transactions(), each entry sorted (core/rw.hpp).
DependencyGraph build_rw_dependency_graph(const Instance& inst,
                                          const WriteSets& writes,
                                          const Metric& metric);

}  // namespace dtm
