// Transaction dependency (conflict) graph H (§2.3): one node per
// transaction, an edge between transactions sharing at least one object,
// edge weight = distance in G between their home nodes.
//
// H is stored in CSR form (offsets + flat edge array) and built one row at
// a time. Row i is the union of sorted neighbor lists, with i removed: for
// the object-conflict graph, the in-subset requester lists of txns[i]'s
// objects; for the read/write variant (build_rw_dependency_graph), per
// object either all requesters (i writes it) or only its writers (i reads
// it). Every such list is strictly ascending — InstanceBuilder sorts each
// transaction's objects and rejects duplicates, requesters are appended in
// id order, and the global -> local map is monotone — so a pairwise
// set_union-style merge yields the sorted, deduplicated row with no sort.
// Rows are staged as bare ids, the edge array is sized exactly, and
// distances come from one batched metric query per row (so DenseMetric
// streams whole matrix rows and AnalyticMetric runs one closed-form loop).
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
/// build H per subgrid / per cluster / per segment).
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

/// Builds H over `txns` (pass all transactions for the global graph).
/// Distances come from `metric`. Runs in O(sum over objects of the squared
/// requester count within the subset), the natural conflict-graph size.
/// Throws dtm::Error on a duplicate or out-of-range id in `txns`.
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

/// One shard's CSR slice of a scheduling window: only the arcs owned by
/// that shard's pool, restricted to the window, in window-local indices.
/// The streaming runtime extracts these concurrently (one shard per thread
/// pool task) and k-way merges them into the full window DependencyGraph.
struct ShardSubgraph {
  /// CSR offsets over the window (size window+1).
  std::vector<std::uint32_t> offsets;
  /// Neighbor lists, ascending local index within each node's slice.
  std::vector<DependencyEdge> edges;
  Weight max_edge_weight = 0;
};

/// Assembles the window CSR over `window` from per-shard slices of it
/// (every conflict pair in exactly one slice): a sortless k-way merge of
/// each node's ascending slices, so the edge order is
/// build_dependency_graph's ascending local index.
DependencyGraph merge_shard_subgraphs(std::span<const TxnId> window,
                                      std::span<const ShardSubgraph> views);

/// H maintained under transaction *arrival* (sim/runtime.hpp's streaming
/// ingest). Each add_txn() inserts only the delta — edges from the new
/// transaction to the still-live (uncommitted) requesters of its objects —
/// into per-shard arc pools; nothing is ever rebuilt. A conflict pair is
/// owned by the shard of the smallest object the pair shares (object ->
/// shard comes from graph/partition.hpp via the object's home node), so
/// every pair lives in exactly one pool and pools can be read
/// concurrently. Arcs are appended at the chain *tail*: partners are
/// inserted in ascending id order and later arrivals always carry larger
/// ids, so every chain stays ascending by neighbor id and window
/// extraction needs no sort (and no allocation beyond the exact-sized
/// output). retire() removes a committed transaction from the live
/// requester sets so future arrivals stop conflicting with it (its
/// historical arcs stay in the pool, which keeps retire O(k)).
/// A subset — in practice a scheduling window's batch — is exported as the
/// standard CSR DependencyGraph that greedy_color() consumes in two steps:
/// shard_subgraph() filters each pool's arcs to subset members, and
/// merge_shard_subgraphs() joins the slices.
class IncrementalConflictGraph {
 public:
  /// Single-pool graph (the shards=1 streaming path and the tests).
  IncrementalConflictGraph(const Metric& metric, std::size_t num_objects);

  /// Sharded pools: `object_shard[o]` in [0, num_shards) owns object o's
  /// conflicts (ties across shared objects go to the smallest object).
  IncrementalConflictGraph(const Metric& metric,
                           std::vector<std::uint32_t> object_shard,
                           std::size_t num_shards);

  /// Registers transaction `t` (ids must arrive dense, in order: the next
  /// expected id is num_txns()) homed at `home` touching `objects`
  /// (sorted, duplicate-free). Inserts the delta edges.
  void add_txn(TxnId t, NodeId home, std::span<const ObjectId> objects);

  /// Marks `t` committed: it leaves the live requester sets of its
  /// `objects` (which must be the set it was added with).
  void retire(TxnId t, std::span<const ObjectId> objects);

  /// CSR view over `txns` (ascending ids already added); only edges with
  /// both endpoints in the subset are included. Local indices follow the
  /// subset's order, matching build_dependency_graph's convention. One-shot
  /// form of the streaming runtime's window extraction: every
  /// shard_subgraph() slice, merged.
  DependencyGraph subgraph(std::span<const TxnId> txns) const;

  /// Shard `s`'s slice of the window: pool-s arcs with both endpoints in
  /// `window` (ascending ids), as a reusable CSR into `out`. `local_of` is
  /// a dense global-id -> window-local table (kInvalidTxn = not in the
  /// window), at least num_txns() entries. Read-only on shared state —
  /// safe to run for distinct shards concurrently.
  void shard_subgraph(std::size_t s, std::span<const TxnId> window,
                      std::span<const TxnId> local_of,
                      ShardSubgraph& out) const;

  std::size_t num_txns() const { return num_txns_; }
  std::size_t num_shards() const { return pools_.size(); }
  /// Undirected edges inserted so far (retired arcs included).
  std::size_t num_edges() const { return num_arcs_ / 2; }
  /// Heaviest edge ever inserted.
  Weight max_edge_weight() const { return max_w_; }
  /// Live (added, not retired) transactions.
  std::size_t live() const { return live_; }
  /// Bytes held by the arc pools and their per-txn chain indices
  /// (telemetry: stream.arc_pool_bytes).
  std::size_t arc_pool_bytes() const;

 private:
  struct Arc {
    TxnId to;
    Weight weight;
    std::int32_t next;  // index of the owner's next (larger-id) arc, -1 at end
  };

  /// One shard's arc pool. head/tail are per owning txn, lazily grown (a
  /// txn with no conflicts in this shard costs nothing here).
  struct Pool {
    std::vector<Arc> arcs;
    std::vector<std::int32_t> head;
    std::vector<std::int32_t> tail;
  };

  void push_arc(Pool& pool, TxnId owner, TxnId to, Weight w);
  std::int32_t chain_head(const Pool& pool, TxnId t) const {
    return t < pool.head.size() ? pool.head[t] : -1;
  }

  const Metric* metric_;
  std::vector<Pool> pools_;
  /// Per object: owning shard (empty means everything is pool 0).
  std::vector<std::uint32_t> object_shard_;
  std::vector<NodeId> home_;
  /// Per object: live requesters, ascending (insertion is in id order and
  /// retire preserves order).
  std::vector<std::vector<TxnId>> live_req_;
  std::size_t num_txns_ = 0;
  std::size_t num_arcs_ = 0;
  Weight max_w_ = 0;
  std::size_t live_ = 0;
  /// Reused add_txn scratch: (partner, owning shard) pairs and their
  /// batched distance query.
  std::vector<std::pair<TxnId, std::uint32_t>> partner_scratch_;
  std::vector<NodeId> target_scratch_;
  std::vector<Weight> dist_scratch_;
};

}  // namespace dtm
