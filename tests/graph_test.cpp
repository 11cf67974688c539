// Unit tests for the CSR graph and single-source shortest paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <utility>

#include "graph/graph.hpp"
#include "graph/shortest_paths.hpp"
#include "graph/topologies/clique.hpp"
#include "graph/topologies/grid.hpp"
#include "graph/topologies/line.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace dtm {
namespace {

Graph triangle_with_tail() {
  // 0-1 (1), 1-2 (2), 0-2 (4), 2-3 (1)
  GraphBuilder b(4);
  b.add_edge(0, 1, 1);
  b.add_edge(1, 2, 2);
  b.add_edge(0, 2, 4);
  b.add_edge(2, 3, 1);
  return b.build();
}

TEST(GraphBuilder, CountsNodesAndEdges) {
  const Graph g = triangle_with_tail();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
}

TEST(GraphBuilder, NeighborsSortedWithWeights) {
  const Graph g = triangle_with_tail();
  const auto n2 = g.neighbors(2);
  ASSERT_EQ(n2.size(), 3u);
  EXPECT_EQ(n2[0].to, 0u);
  EXPECT_EQ(n2[0].weight, 4);
  EXPECT_EQ(n2[1].to, 1u);
  EXPECT_EQ(n2[2].to, 3u);
}

TEST(GraphBuilder, RejectsBadEdges) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), Error);
  EXPECT_THROW(b.add_edge(1, 1), Error);
  EXPECT_THROW(b.add_edge(0, 1, 0), Error);
  EXPECT_THROW(b.add_edge(0, 1, -2), Error);
}

TEST(GraphBuilder, RejectsEmptyGraph) {
  EXPECT_THROW(GraphBuilder(0), Error);
}

TEST(Graph, UnitWeightFlag) {
  EXPECT_TRUE(Clique(4).graph.unit_weights());
  EXPECT_FALSE(triangle_with_tail().unit_weights());
  EXPECT_EQ(triangle_with_tail().max_weight(), 4);
}

TEST(Graph, ConnectedDetection) {
  EXPECT_TRUE(triangle_with_tail().connected());
  GraphBuilder b(4);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  EXPECT_FALSE(b.build().connected());
}

TEST(Graph, SingleNodeIsConnected) {
  GraphBuilder b(1);
  EXPECT_TRUE(b.build().connected());
}

// The triangle_with_tail() edges as a family-style lazy graph.
Graph lazy_triangle_with_tail(Graph::Shape shape) {
  return Graph(shape, "triangle", [](GraphBuilder& b) {
    b.add_edge(0, 1, 1);
    b.add_edge(1, 2, 2);
    b.add_edge(0, 2, 4);
    b.add_edge(2, 3, 1);
  });
}

constexpr Graph::Shape kTriangleShape{
    .num_nodes = 4, .num_edges = 4, .max_weight = 4};

TEST(LazyGraph, ShapeNeedsNoAdjacency) {
  const Graph g = lazy_triangle_with_tail(kTriangleShape);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_FALSE(g.unit_weights());
  EXPECT_EQ(g.max_weight(), 4);
  EXPECT_FALSE(g.materialized());
  EXPECT_TRUE(triangle_with_tail().materialized());
}

TEST(LazyGraph, FirstTouchBuildsTheSameCsr) {
  const Graph lazy = lazy_triangle_with_tail(kTriangleShape);
  const Graph built = triangle_with_tail();
  ASSERT_EQ(lazy.degree(2), 3u);
  EXPECT_TRUE(lazy.materialized());
  for (NodeId u = 0; u < 4; ++u) {
    EXPECT_TRUE(std::ranges::equal(lazy.neighbors(u), built.neighbors(u)));
  }
  EXPECT_EQ(lazy.shape(), built.shape());
  EXPECT_TRUE(lazy == built);
}

TEST(LazyGraph, CopiesShareOneAdjacency) {
  const Graph a = lazy_triangle_with_tail(kTriangleShape);
  Graph b = a;
  EXPECT_TRUE(a == b);  // one adjacency: equal without building it
  EXPECT_FALSE(a.materialized());
  const Graph c = std::move(b);
  EXPECT_EQ(c.neighbors(0).data(), a.neighbors(0).data());
  EXPECT_TRUE(a.materialized());
}

TEST(LazyGraph, DifferentShapesCompareUnequalWithoutFilling) {
  const Graph a = lazy_triangle_with_tail(kTriangleShape);
  const Graph b = Line(4).graph;
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a.materialized());
  EXPECT_FALSE(b.materialized());
}

TEST(LazyGraph, WrongClosedFormThrowsOnFirstTouch) {
  Graph::Shape wrong = kTriangleShape;
  wrong.num_edges = 5;
  const Graph g = lazy_triangle_with_tail(wrong);
  EXPECT_EQ(g.num_edges(), 5u);  // the shape alone cannot tell
  try {
    (void)g.neighbors(0);
    FAIL() << "a wrong closed-form shape must not go unnoticed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("triangle"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(g.materialized());
  EXPECT_THROW((void)g.degree(0), Error);  // and again on the next touch

  wrong = kTriangleShape;
  wrong.max_weight = 1;  // claims unit weights
  EXPECT_TRUE(lazy_triangle_with_tail(wrong).unit_weights());
  EXPECT_THROW((void)lazy_triangle_with_tail(wrong).connected(), Error);
  const Graph unit_claim = lazy_triangle_with_tail(wrong);
  EXPECT_THROW((void)(unit_claim == lazy_triangle_with_tail(wrong)), Error);
}

TEST(LazyGraph, RejectsEmptyShape) {
  EXPECT_THROW(Graph({}, "empty", [](GraphBuilder&) {}), Error);
}

TEST(LazyGraph, ConcurrentFirstTouchSeesOneAdjacency) {
  constexpr std::size_t kTasks = 4;
  const Grid grid(9, 11);
  const Graph& g = grid.graph;
  ASSERT_FALSE(g.materialized());
  ThreadPool pool(kTasks);
  std::latch start(kTasks);
  std::vector<std::vector<std::pair<const Arc*, std::size_t>>> seen(kTasks);
  for (std::size_t t = 0; t < kTasks; ++t) {
    pool.submit([&, t] {
      start.arrive_and_wait();  // every task touches the fresh graph at once
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        // Half the tasks make their first touch through degree().
        const std::size_t deg = t % 2 == 0 ? g.degree(u) : 0;
        const auto span = g.neighbors(u);
        if (t % 2 == 0) {
          EXPECT_EQ(deg, span.size());
        }
        seen[t].emplace_back(span.data(), span.size());
      }
    });
  }
  pool.wait();
  EXPECT_TRUE(g.materialized());
  for (std::size_t t = 1; t < kTasks; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_TRUE(g == Grid(9, 11).graph);  // an independently filled copy
}

TEST(Dijkstra, WeightedDistances) {
  const Graph g = triangle_with_tail();
  const auto t = dijkstra(g, 0);
  EXPECT_EQ(t.dist[0], 0);
  EXPECT_EQ(t.dist[1], 1);
  EXPECT_EQ(t.dist[2], 3);  // 0-1-2 beats the weight-4 direct edge
  EXPECT_EQ(t.dist[3], 4);
}

TEST(Dijkstra, PathReconstruction) {
  const Graph g = triangle_with_tail();
  const auto t = dijkstra(g, 0);
  const auto p = t.path_to(3);
  EXPECT_EQ(p, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(Dijkstra, UnreachableIsInfinite) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  const Graph g = b.build();
  const auto t = dijkstra(g, 0);
  EXPECT_EQ(t.dist[2], kInfiniteWeight);
  EXPECT_THROW(t.path_to(2), Error);
}

TEST(Bfs, MatchesDijkstraOnUnitGraphs) {
  const Grid grid(5, 7);
  for (NodeId s : {NodeId{0}, NodeId{17}, NodeId{34}}) {
    const auto b = bfs(grid.graph, s);
    const auto d = dijkstra(grid.graph, s);
    EXPECT_EQ(b.dist, d.dist);
  }
}

TEST(Bfs, RejectsWeightedGraph) {
  EXPECT_THROW(bfs(triangle_with_tail(), 0), Error);
}

TEST(SingleSource, DispatchesByWeights) {
  const Line line(10);
  EXPECT_EQ(single_source(line.graph, 0).dist[9], 9);
  EXPECT_EQ(single_source(triangle_with_tail(), 0).dist[2], 3);
}

TEST(Distance, PairQueries) {
  const Graph g = triangle_with_tail();
  EXPECT_EQ(distance(g, 0, 0), 0);
  EXPECT_EQ(distance(g, 0, 2), 3);
  EXPECT_EQ(distance(g, 3, 0), 4);
}

TEST(Diameter, KnownValues) {
  EXPECT_EQ(diameter(Clique(6).graph), 1);
  EXPECT_EQ(diameter(Line(10).graph), 9);
  EXPECT_EQ(diameter(Grid(4, 4).graph), 6);
  EXPECT_EQ(diameter(triangle_with_tail()), 4);
}

TEST(Diameter, RequiresConnected) {
  GraphBuilder b(2);
  EXPECT_THROW(diameter(b.build()), Error);
}

TEST(ShortestPathTree, PathToSelfIsTrivial) {
  const Graph g = triangle_with_tail();
  const auto t = dijkstra(g, 1);
  EXPECT_EQ(t.path_to(1), (std::vector<NodeId>{1}));
}

}  // namespace
}  // namespace dtm
