#include "graph/topologies/detect.hpp"

#include <bit>

namespace dtm {

// A candidate topology costs O(1) to construct (its adjacency is built on
// first use), and `candidate.graph == g` compares the closed-form shape
// (node and edge counts, weights) before any CSR, so a candidate of the
// wrong shape is rejected without building either adjacency. The checks
// below only pick the parameters and keep degenerate shapes canonical.

std::unique_ptr<Line> recover_line(const Graph& g) {
  const std::size_t n = g.num_nodes();
  if (n < 2) return nullptr;
  auto candidate = std::make_unique<Line>(n);
  if (candidate->graph == g) return candidate;
  return nullptr;
}

std::unique_ptr<Grid> recover_grid(const Graph& g) {
  const std::size_t n = g.num_nodes();
  // rows, cols >= 2 (a 1×n mesh is a Line). Row-major numbering makes an
  // r×c grid and its c×r transpose distinct CSR layouts unless r == c, so
  // at most one divisor pair matches.
  for (std::size_t rows = 2; rows * 2 <= n; ++rows) {
    if (n % rows != 0) continue;
    const std::size_t cols = n / rows;
    if (cols < 2) continue;
    auto candidate = std::make_unique<Grid>(rows, cols);
    if (candidate->graph == g) return candidate;
  }
  return nullptr;
}

std::unique_ptr<ClusterGraph> recover_cluster(const Graph& g) {
  const std::size_t n = g.num_nodes();
  if (n < 4) return nullptr;
  // Bridges are the only candidate non-unit edges, so γ is the heaviest
  // weight in the graph (γ = 1 degenerates to unit weights and still
  // round-trips through the exact comparison).
  const Weight gamma = g.max_weight();
  if (gamma < 1) return nullptr;
  for (std::size_t alpha = 2; alpha * 2 <= n; ++alpha) {
    if (n % alpha != 0) continue;
    const std::size_t beta = n / alpha;
    if (beta < 2) continue;
    auto candidate = std::make_unique<ClusterGraph>(alpha, beta, gamma);
    if (candidate->graph == g) return candidate;
  }
  return nullptr;
}

std::unique_ptr<Star> recover_star(const Graph& g) {
  const std::size_t n = g.num_nodes();
  // A star is a unit-weight tree; check that before degree(0) builds the
  // input's adjacency.
  if (n < 3 || !g.unit_weights() || g.num_edges() != n - 1) return nullptr;
  // The center is node 0 and touches exactly one node per ray.
  const std::size_t alpha = g.degree(0);
  if (alpha < 2 || (n - 1) % alpha != 0) return nullptr;
  const std::size_t beta = (n - 1) / alpha;
  if (beta < 1) return nullptr;
  auto candidate = std::make_unique<Star>(alpha, beta);
  if (candidate->graph == g) return candidate;
  return nullptr;
}

std::unique_ptr<Clique> recover_clique(const Graph& g) {
  if (g.num_nodes() < 3) return nullptr;
  auto candidate = std::make_unique<Clique>(g.num_nodes());
  if (candidate->graph == g) return candidate;
  return nullptr;
}

std::unique_ptr<Hypercube> recover_hypercube(const Graph& g) {
  const std::size_t n = g.num_nodes();
  if (!std::has_single_bit(n)) return nullptr;
  const auto dim = static_cast<std::size_t>(std::countr_zero(n));
  if (dim < 3 || dim > 24) return nullptr;
  auto candidate = std::make_unique<Hypercube>(dim);
  if (candidate->graph == g) return candidate;
  return nullptr;
}

namespace {

// n = t⁵ for the block constructions (s = t² blocks of s rows × √s = t
// columns); 0 when no integer fifth root t ≥ 2 exists.
std::size_t fifth_root_of(std::size_t n) {
  for (std::size_t t = 2; t * t * t * t * t <= n; ++t) {
    if (t * t * t * t * t == n) return t;
  }
  return 0;
}

}  // namespace

std::unique_ptr<BlockGrid> recover_block_grid(const Graph& g) {
  const std::size_t t = fifth_root_of(g.num_nodes());
  if (t == 0) return nullptr;
  auto candidate = std::make_unique<BlockGrid>(t * t);
  if (candidate->graph == g) return candidate;
  return nullptr;
}

std::unique_ptr<BlockTree> recover_block_tree(const Graph& g) {
  const std::size_t t = fifth_root_of(g.num_nodes());
  if (t == 0) return nullptr;
  auto candidate = std::make_unique<BlockTree>(t * t);
  if (candidate->graph == g) return candidate;
  return nullptr;
}

std::optional<TopologyKind> detect_topology(const Graph& g) {
  if (recover_line(g)) return TopologyKind::kLine;
  if (recover_grid(g)) return TopologyKind::kGrid;
  if (recover_cluster(g)) return TopologyKind::kCluster;
  if (recover_star(g)) return TopologyKind::kStar;
  if (recover_clique(g)) return TopologyKind::kClique;
  if (recover_hypercube(g)) return TopologyKind::kHypercube;
  if (recover_block_grid(g)) return TopologyKind::kBlockGrid;
  if (recover_block_tree(g)) return TopologyKind::kBlockTree;
  return std::nullopt;
}

}  // namespace dtm
