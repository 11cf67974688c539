#include "graph/topologies/hypercube.hpp"

namespace dtm {

Hypercube::Hypercube(std::size_t dim_in) : dim(dim_in) {
  DTM_REQUIRE(dim >= 1 && dim <= 24, "hypercube dimension out of [1,24]");
  const std::size_t n = num_nodes();
  graph = Graph({.num_nodes = n, .num_edges = dim * n / 2, .max_weight = 1},
                "hypercube", [n, dim = dim](GraphBuilder& b) {
                  for (NodeId u = 0; u < n; ++u) {
                    for (std::size_t bit = 0; bit < dim; ++bit) {
                      const NodeId v = u ^ (NodeId{1} << bit);
                      if (u < v) b.add_edge(u, v, 1);
                    }
                  }
                });
}

}  // namespace dtm
