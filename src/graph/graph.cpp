#include "graph/graph.hpp"

#include <algorithm>

namespace dtm {

GraphBuilder::GraphBuilder(std::size_t num_nodes) : num_nodes_(num_nodes) {
  DTM_REQUIRE(num_nodes > 0, "graph must have at least one node");
  DTM_REQUIRE(num_nodes < kInvalidNode, "too many nodes");
}

void GraphBuilder::add_edge(NodeId u, NodeId v, Weight weight) {
  DTM_REQUIRE(u < num_nodes_ && v < num_nodes_,
              "edge endpoint out of range: {" << u << ',' << v << "} with "
                                              << num_nodes_ << " nodes");
  DTM_REQUIRE(u != v, "self-loops are not allowed (node " << u << ")");
  DTM_REQUIRE(weight > 0, "edge weight must be positive, got " << weight);
  edges_.push_back({u, v, weight});
}

Graph::Shape GraphBuilder::build_csr(Graph::Adjacency& adj) const {
  Graph::Shape shape{.num_nodes = num_nodes_, .num_edges = edges_.size()};
  adj.offsets.assign(num_nodes_ + 1, 0);
  for (const Edge& e : edges_) {
    ++adj.offsets[e.u + 1];
    ++adj.offsets[e.v + 1];
  }
  for (std::size_t i = 1; i <= num_nodes_; ++i) {
    adj.offsets[i] += adj.offsets[i - 1];
  }
  adj.arcs.resize(edges_.size() * 2);
  std::vector<std::size_t> cursor(adj.offsets.begin(), adj.offsets.end() - 1);
  for (const Edge& e : edges_) {
    adj.arcs[cursor[e.u]++] = {e.v, e.weight};
    adj.arcs[cursor[e.v]++] = {e.u, e.weight};
    shape.max_weight = std::max(shape.max_weight, e.weight);
  }
  for (NodeId u = 0; u < num_nodes_; ++u) {
    auto begin = adj.arcs.begin() + static_cast<std::ptrdiff_t>(adj.offsets[u]);
    auto end = adj.arcs.begin() + static_cast<std::ptrdiff_t>(adj.offsets[u + 1]);
    std::sort(begin, end, [](const Arc& a, const Arc& b) {
      return a.to != b.to ? a.to < b.to : a.weight < b.weight;
    });
  }
  return shape;
}

Graph GraphBuilder::build() const {
  Graph g;
  g.state_ = std::make_shared<Graph::State>();
  g.shape_ = build_csr(g.state_->adj);
  g.state_->ready.store(true, std::memory_order_release);
  return g;
}

Graph::Graph(Shape shape, std::string family, Fill fill)
    : shape_(shape), state_(std::make_shared<State>()) {
  DTM_REQUIRE(shape.num_nodes > 0 && shape.num_nodes < kInvalidNode,
              family << " graph: node count " << shape.num_nodes
                     << " out of range");
  state_->family = std::move(family);
  state_->fill = std::move(fill);
}

void Graph::fill_adjacency() const {
  State& st = *state_;
  const std::lock_guard lock(st.mu);
  if (st.ready.load(std::memory_order_relaxed)) return;
  GraphBuilder b(shape_.num_nodes);
  st.fill(b);
  Adjacency adj;
  const Shape built = b.build_csr(adj);
  DTM_REQUIRE(built == shape_,
              st.family << " graph: built " << built.num_nodes << " nodes, "
                        << built.num_edges << " edges, max weight "
                        << built.max_weight
                        << ", but its closed-form shape promised "
                        << shape_.num_nodes << ", " << shape_.num_edges
                        << ", " << shape_.max_weight);
  st.adj = std::move(adj);
  st.fill = nullptr;
  st.ready.store(true, std::memory_order_release);
}

bool operator==(const Graph& a, const Graph& b) {
  if (a.shape_ != b.shape_) return false;
  if (a.state_ == b.state_ || a.num_nodes() == 0) return true;
  const Graph::Adjacency& x = a.adjacency();
  const Graph::Adjacency& y = b.adjacency();
  return x.offsets == y.offsets && x.arcs == y.arcs;
}

bool Graph::connected() const {
  const std::size_t n = num_nodes();
  if (n == 0) return true;
  std::vector<char> seen(n, 0);
  std::vector<NodeId> stack = {0};
  seen[0] = 1;
  std::size_t visited = 1;
  while (!stack.empty()) {
    NodeId u = stack.back();
    stack.pop_back();
    for (const Arc& a : neighbors(u)) {
      if (!seen[a.to]) {
        seen[a.to] = 1;
        ++visited;
        stack.push_back(a.to);
      }
    }
  }
  return visited == n;
}

}  // namespace dtm
