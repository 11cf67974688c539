#include "graph/topologies/star.hpp"

#include <algorithm>
#include <bit>

namespace dtm {

Star::Star(std::size_t alpha_in, std::size_t beta_in)
    : alpha(alpha_in), beta(beta_in) {
  DTM_REQUIRE(alpha >= 1, "star needs at least one ray");
  DTM_REQUIRE(beta >= 1, "rays need at least one node");
  // A tree: one edge per non-center node.
  graph = Graph(
      {.num_nodes = num_nodes(), .num_edges = alpha * beta, .max_weight = 1},
      "star", [alpha = alpha, beta = beta](GraphBuilder& b) {
        const auto at = [beta](std::size_t ray, std::size_t pos) {
          return static_cast<NodeId>(1 + ray * beta + (pos - 1));
        };
        for (std::size_t r = 0; r < alpha; ++r) {
          b.add_edge(0, at(r, 1), 1);
          for (std::size_t p = 1; p < beta; ++p) {
            b.add_edge(at(r, p), at(r, p + 1), 1);
          }
        }
      });
}

std::size_t Star::num_segments() const {
  // ⌈log2 β⌉ with the convention that β = 1 still forms one segment.
  return std::max<std::size_t>(1, std::bit_width(beta - 1));
}

std::size_t Star::segment_of_pos(std::size_t pos) const {
  DTM_ASSERT(pos >= 1 && pos <= beta);
  // pos in [2^{i-1}, 2^i - 1] => i; the final segment absorbs everything up
  // to β (the paper: "the last segment may be truncated"/extended, holding
  // no more than β/2 + 1 nodes).
  return std::min(static_cast<std::size_t>(std::bit_width(pos)),
                  num_segments());
}

std::pair<std::size_t, std::size_t> Star::segment_range(
    std::size_t segment) const {
  DTM_ASSERT(segment >= 1 && segment <= num_segments());
  const std::size_t first = std::size_t{1} << (segment - 1);
  const std::size_t last = segment == num_segments()
                               ? beta
                               : (std::size_t{1} << segment) - 1;
  DTM_ASSERT(last <= beta);
  return {first, last};
}

Weight Star::distance_for(std::size_t beta, NodeId u, NodeId v) {
  if (u == v) return 0;
  const auto pos = [beta](NodeId x) { return (x - 1) % beta + 1; };
  if (u == 0) return static_cast<Weight>(pos(v));
  if (v == 0) return static_cast<Weight>(pos(u));
  if ((u - 1) / beta == (v - 1) / beta) {
    const auto pu = static_cast<Weight>(pos(u));
    const auto pv = static_cast<Weight>(pos(v));
    return pu > pv ? pu - pv : pv - pu;
  }
  return static_cast<Weight>(pos(u) + pos(v));
}

}  // namespace dtm
