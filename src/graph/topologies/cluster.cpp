#include "graph/topologies/cluster.hpp"

namespace dtm {

ClusterGraph::ClusterGraph(std::size_t alpha_in, std::size_t beta_in,
                           Weight gamma_in)
    : alpha(alpha_in), beta(beta_in), gamma(gamma_in) {
  DTM_REQUIRE(alpha >= 1, "cluster graph needs at least one cluster");
  DTM_REQUIRE(beta >= 1, "clusters need at least one node");
  DTM_REQUIRE(gamma >= 1, "bridge weight must be positive");
  // β(β−1)/2 unit edges per clique, one weight-γ edge per bridge pair.
  const std::size_t bridges = alpha * (alpha - 1) / 2;
  graph = Graph(
      {.num_nodes = alpha * beta,
       .num_edges = alpha * (beta * (beta - 1) / 2) + bridges,
       .max_weight = bridges > 0 ? gamma : (beta > 1 ? 1 : 0)},
      "cluster",
      [alpha = alpha, beta = beta, gamma = gamma](GraphBuilder& b) {
        const auto at = [beta](std::size_t c, std::size_t i) {
          return static_cast<NodeId>(c * beta + i);
        };
        for (std::size_t c = 0; c < alpha; ++c) {
          for (std::size_t i = 0; i < beta; ++i) {
            for (std::size_t j = i + 1; j < beta; ++j) {
              b.add_edge(at(c, i), at(c, j), 1);
            }
          }
        }
        for (std::size_t c = 0; c < alpha; ++c) {
          for (std::size_t d = c + 1; d < alpha; ++d) {
            b.add_edge(at(c, 0), at(d, 0), gamma);
          }
        }
      });
}

}  // namespace dtm
