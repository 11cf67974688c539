#include "graph/topologies/butterfly.hpp"

namespace dtm {

Butterfly::Butterfly(std::size_t dim_in) : dim(dim_in) {
  DTM_REQUIRE(dim >= 1 && dim <= 16, "butterfly dimension out of [1,16]");
  // A straight and a cross edge from every node above the last level.
  graph = Graph(
      {.num_nodes = num_nodes(),
       .num_edges = 2 * dim * rows(),
       .max_weight = 1},
      "butterfly", [dim = dim, rows = rows()](GraphBuilder& b) {
        const auto at = [rows](std::size_t l, std::size_t r) {
          return static_cast<NodeId>(l * rows + r);
        };
        for (std::size_t l = 0; l < dim; ++l) {
          for (std::size_t r = 0; r < rows; ++r) {
            b.add_edge(at(l, r), at(l + 1, r), 1);
            b.add_edge(at(l, r), at(l + 1, r ^ (std::size_t{1} << l)), 1);
          }
        }
      });
}

}  // namespace dtm
