#include "graph/topologies/grid.hpp"

namespace dtm {

Grid::Grid(std::size_t rows_in, std::size_t cols_in)
    : rows(rows_in), cols(cols_in) {
  DTM_REQUIRE(rows >= 1 && cols >= 1, "grid needs positive dimensions");
  const std::size_t edges = rows * (cols - 1) + cols * (rows - 1);
  graph = Graph({.num_nodes = rows * cols,
                 .num_edges = edges,
                 .max_weight = edges > 0 ? 1 : 0},
                "grid", [rows = rows, cols = cols](GraphBuilder& b) {
                  const auto at = [cols](std::size_t r, std::size_t c) {
                    return static_cast<NodeId>(r * cols + c);
                  };
                  for (std::size_t r = 0; r < rows; ++r) {
                    for (std::size_t c = 0; c < cols; ++c) {
                      if (c + 1 < cols) b.add_edge(at(r, c), at(r, c + 1), 1);
                      if (r + 1 < rows) b.add_edge(at(r, c), at(r + 1, c), 1);
                    }
                  }
                });
}

}  // namespace dtm
