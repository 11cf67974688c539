#include "graph/topologies/line.hpp"

namespace dtm {

Line::Line(std::size_t n_in) : n(n_in) {
  DTM_REQUIRE(n >= 1, "line needs at least 1 node");
  graph = Graph({.num_nodes = n,
                 .num_edges = n - 1,
                 .max_weight = n > 1 ? 1 : 0},
                "line", [n = n](GraphBuilder& b) {
                  for (NodeId u = 0; u + 1 < n; ++u) b.add_edge(u, u + 1, 1);
                });
}

}  // namespace dtm
