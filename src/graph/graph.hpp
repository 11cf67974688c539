// Weighted undirected graph in CSR (compressed sparse row) form.
//
// This is the communication network `G` of the paper's model (§2.1): nodes
// host transactions, edges are links, integer edge weights are link delays
// in synchronous time steps.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace dtm {

using NodeId = std::uint32_t;
/// Edge weights and distances are integer time steps (the model is fully
/// discrete); 64-bit so that makespans/communication costs never overflow.
using Weight = std::int64_t;

constexpr NodeId kInvalidNode = static_cast<NodeId>(-1);
constexpr Weight kInfiniteWeight = static_cast<Weight>(1) << 62;

/// One directed arc in the CSR adjacency (each undirected edge is stored
/// twice).
struct Arc {
  NodeId to;
  Weight weight;

  friend bool operator==(const Arc&, const Arc&) = default;
};

class GraphBuilder;

/// Immutable CSR graph in two parts:
///  * the shape (node and edge counts, max_weight), known when the graph
///    is constructed;
///  * the adjacency (CSR offsets and arcs), built once, on the first
///    neighbors(), degree(), connected() or full == comparison.
/// GraphBuilder::build() returns a graph whose adjacency is already built.
/// The topology families construct theirs from a closed-form shape plus a
/// fill function (their GraphBuilder loop), so code that needs only
/// distances between nodes never pays for the CSR. Copies share one
/// adjacency; the first touch is thread-safe.
class Graph {
 public:
  struct Shape {
    std::size_t num_nodes = 0;
    std::size_t num_edges = 0;
    /// Largest edge weight (0 for an edgeless graph). Weights are positive
    /// integers, so the graph has unit weights iff max_weight <= 1.
    Weight max_weight = 0;

    friend bool operator==(const Shape&, const Shape&) = default;
  };
  /// Adds every edge of the graph to a builder of shape.num_nodes nodes.
  using Fill = std::function<void(GraphBuilder&)>;

  Graph() = default;

  /// A graph whose adjacency `fill` builds on first use. The built CSR is
  /// checked against `shape`; a mismatch throws dtm::Error naming `family`.
  Graph(Shape shape, std::string family, Fill fill);

  const Shape& shape() const { return shape_; }
  std::size_t num_nodes() const { return shape_.num_nodes; }
  std::size_t num_edges() const { return shape_.num_edges; }

  /// Arcs leaving `u`, sorted by target id.
  std::span<const Arc> neighbors(NodeId u) const {
    DTM_ASSERT(u < num_nodes());
    const Adjacency& adj = adjacency();
    return {adj.arcs.data() + adj.offsets[u],
            adj.arcs.data() + adj.offsets[u + 1]};
  }

  std::size_t degree(NodeId u) const { return neighbors(u).size(); }

  /// True when every edge has weight exactly 1 (lets callers pick BFS over
  /// Dijkstra).
  bool unit_weights() const { return shape_.max_weight <= 1; }

  /// Largest edge weight (0 for an edgeless graph).
  Weight max_weight() const { return shape_.max_weight; }

  /// True if there is a path between every pair of nodes.
  bool connected() const;

  /// True once the adjacency is built (always, for GraphBuilder output).
  bool materialized() const {
    return !state_ || state_->ready.load(std::memory_order_acquire);
  }

  /// Structural equality: same shape, then the same CSR layout (adjacency
  /// and weights). Graphs of different shapes compare unequal without
  /// building either adjacency. Topology recovery (topologies/detect.hpp)
  /// uses this to certify that a rebuilt parameterized topology matches an
  /// instance's graph exactly.
  friend bool operator==(const Graph& a, const Graph& b);

 private:
  friend class GraphBuilder;

  struct Adjacency {
    std::vector<std::size_t> offsets;  // size num_nodes+1
    std::vector<Arc> arcs;
  };
  struct State {
    std::string family;
    Fill fill;  // released once the adjacency is built
    std::atomic<bool> ready{false};
    std::mutex mu;
    Adjacency adj;
  };

  const Adjacency& adjacency() const {
    if (!state_->ready.load(std::memory_order_acquire)) fill_adjacency();
    return state_->adj;
  }
  void fill_adjacency() const;

  Shape shape_;
  std::shared_ptr<State> state_;  // null only for the empty graph
};

/// Incremental edge-list builder; finalize with build().
class GraphBuilder {
 public:
  explicit GraphBuilder(std::size_t num_nodes);

  /// Adds an undirected edge {u, v} with positive integer weight.
  /// Parallel edges are allowed at build time; shortest-path code simply
  /// uses the lighter one.
  void add_edge(NodeId u, NodeId v, Weight weight = 1);

  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t num_edges() const { return edges_.size(); }

  Graph build() const;

 private:
  friend class Graph;
  /// Lays the edges out as CSR into `adj` and returns the built shape.
  Graph::Shape build_csr(Graph::Adjacency& adj) const;

  struct Edge {
    NodeId u, v;
    Weight weight;
  };
  std::size_t num_nodes_;
  std::vector<Edge> edges_;
};

}  // namespace dtm
