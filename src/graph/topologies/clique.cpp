#include "graph/topologies/clique.hpp"

namespace dtm {

Clique::Clique(std::size_t n_in) : n(n_in) {
  DTM_REQUIRE(n >= 1, "clique needs at least 1 node");
  graph = Graph({.num_nodes = n,
                 .num_edges = n * (n - 1) / 2,
                 .max_weight = n > 1 ? 1 : 0},
                "clique", [n = n](GraphBuilder& b) {
                  for (NodeId u = 0; u < n; ++u) {
                    for (NodeId v = u + 1; v < n; ++v) b.add_edge(u, v, 1);
                  }
                });
}

}  // namespace dtm
