#include "graph/topologies/block_grid.hpp"

#include <cmath>

namespace dtm {

namespace {
std::size_t integer_sqrt(std::size_t s) {
  auto r = static_cast<std::size_t>(std::llround(std::sqrt(static_cast<double>(s))));
  DTM_REQUIRE(r * r == s, "block grid requires a perfect-square s, got " << s);
  return r;
}
}  // namespace

BlockGrid::BlockGrid(std::size_t s_in)
    : s(s_in),
      sqrt_s(integer_sqrt(s_in)),
      rows(s_in),
      cols(s_in * sqrt_s) {
  DTM_REQUIRE(s >= 1, "block grid needs s >= 1");
  // A full rows × cols mesh; with s ≥ 2 blocks some horizontal edges
  // cross a block boundary and weigh s (s = 1 is a single node).
  graph = Graph(
      {.num_nodes = rows * cols,
       .num_edges = (rows - 1) * cols + rows * (cols - 1),
       .max_weight = s == 1 ? 0 : static_cast<Weight>(s)},
      "block_grid",
      [s = s, sqrt_s = sqrt_s, rows = rows, cols = cols](GraphBuilder& b) {
        const auto at = [cols](std::size_t r, std::size_t c) {
          return static_cast<NodeId>(r * cols + c);
        };
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t c = 0; c < cols; ++c) {
            if (r + 1 < rows) b.add_edge(at(r, c), at(r + 1, c), 1);
            if (c + 1 < cols) {
              const bool crosses_blocks = (c + 1) % sqrt_s == 0;
              b.add_edge(at(r, c), at(r, c + 1),
                         crosses_blocks ? static_cast<Weight>(s) : 1);
            }
          }
        }
      });
}

std::vector<NodeId> BlockGrid::block_nodes(std::size_t block) const {
  DTM_ASSERT(block < s);
  std::vector<NodeId> out;
  out.reserve(rows * sqrt_s);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = block * sqrt_s; c < (block + 1) * sqrt_s; ++c) {
      out.push_back(node_at(r, c));
    }
  }
  return out;
}

}  // namespace dtm
