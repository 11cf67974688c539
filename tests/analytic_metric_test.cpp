// Property tests for the closed-form AnalyticMetric oracle: on every
// structured family the analytic distances must equal DenseMetric's, paths
// must be byte-identical to DenseMetric's greedy descent and
// metric-consistent (hop-weight sum == reported distance), and detection
// must recover exactly the family that built the graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "graph/analytic_metric.hpp"
#include "graph/metric.hpp"
#include "graph/topologies/butterfly.hpp"
#include "graph/topologies/detect.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"

namespace dtm {
namespace {

// One constructed instance of a family, small enough for DenseMetric.
struct Fixture {
  std::string name;
  TopologyKind kind;
  std::unique_ptr<AnalyticMetric> analytic;
  // Owner of the graph both metrics reference (type-erased topology).
  std::shared_ptr<void> owner;
  const Graph* graph;
};

template <typename T>
Fixture fixture(std::string name, TopologyKind kind, T topology) {
  auto owner = std::make_shared<T>(std::move(topology));
  Fixture f;
  f.name = std::move(name);
  f.kind = kind;
  f.analytic = make_analytic_metric(*owner);
  f.graph = &owner->graph;
  f.owner = std::move(owner);
  return f;
}

std::vector<Fixture> all_fixtures() {
  std::vector<Fixture> fs;
  fs.push_back(fixture("line7", TopologyKind::kLine, Line(7)));
  fs.push_back(fixture("line2", TopologyKind::kLine, Line(2)));
  fs.push_back(fixture("grid3x5", TopologyKind::kGrid, Grid(3, 5)));
  fs.push_back(fixture("grid4x4", TopologyKind::kGrid, Grid(4)));
  fs.push_back(
      fixture("cluster3x4g7", TopologyKind::kCluster, ClusterGraph(3, 4, 7)));
  fs.push_back(
      fixture("cluster2x5g1", TopologyKind::kCluster, ClusterGraph(2, 5, 1)));
  fs.push_back(fixture("star4x3", TopologyKind::kStar, Star(4, 3)));
  fs.push_back(fixture("star3x1", TopologyKind::kStar, Star(3, 1)));
  fs.push_back(fixture("clique6", TopologyKind::kClique, Clique(6)));
  fs.push_back(fixture("cube3", TopologyKind::kHypercube, Hypercube(3)));
  fs.push_back(fixture("cube4", TopologyKind::kHypercube, Hypercube(4)));
  fs.push_back(fixture("blockgrid4", TopologyKind::kBlockGrid, BlockGrid(4)));
  fs.push_back(fixture("blockgrid9", TopologyKind::kBlockGrid, BlockGrid(9)));
  fs.push_back(fixture("blocktree4", TopologyKind::kBlockTree, BlockTree(4)));
  fs.push_back(fixture("blocktree9", TopologyKind::kBlockTree, BlockTree(9)));
  return fs;
}

TEST(AnalyticMetric, ConstructsForEveryFamily) {
  for (const auto& f : all_fixtures()) {
    ASSERT_NE(f.analytic, nullptr) << f.name;
    EXPECT_EQ(f.analytic->kind(), f.kind) << f.name;
  }
}

TEST(AnalyticMetric, DistancesMatchDenseOnAllPairs) {
  for (const auto& f : all_fixtures()) {
    const DenseMetric dense(*f.graph);
    const auto n = static_cast<NodeId>(f.graph->num_nodes());
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        ASSERT_EQ(f.analytic->distance(u, v), dense.distance(u, v))
            << f.name << " d(" << u << "," << v << ")";
      }
    }
  }
}

TEST(AnalyticMetric, BatchedDistancesMatchScalar) {
  // Each family has its own batched loop, so every branch of it is pinned
  // to the scalar closed form: on the small fixtures every source against
  // one batch of every node (the source itself, the cluster bridges and
  // the star hub included), ascending and descending.
  std::size_t exhaustive = 0;
  for (const auto& f : all_fixtures()) {
    const auto n = static_cast<NodeId>(f.graph->num_nodes());
    if (n > 64) continue;
    ++exhaustive;
    std::vector<NodeId> targets(n);
    for (NodeId v = 0; v < n; ++v) targets[v] = v;
    std::vector<Weight> out(n);
    for (int pass = 0; pass < 2; ++pass) {
      for (NodeId from = 0; from < n; ++from) {
        f.analytic->distances(from, targets, out.data());
        for (NodeId i = 0; i < n; ++i) {
          ASSERT_EQ(out[i], f.analytic->closed_form(from, targets[i]))
              << f.name << " d(" << from << "," << targets[i] << ")";
        }
      }
      std::reverse(targets.begin(), targets.end());
    }
    // The range checks stay live in every family's loop.
    const std::vector<NodeId> bad = {0, n};
    EXPECT_THROW(f.analytic->distances(0, bad, out.data()), Error) << f.name;
    EXPECT_THROW(f.analytic->distances(n, targets, out.data()), Error)
        << f.name;
  }
  EXPECT_GE(exhaustive, 13u);

  // Larger fixtures: seeded batches.
  for (const auto& f : all_fixtures()) {
    const auto n = static_cast<NodeId>(f.graph->num_nodes());
    if (n <= 64) continue;
    Rng rng(7);
    std::vector<NodeId> targets;
    for (int i = 0; i < 64; ++i) {
      targets.push_back(static_cast<NodeId>(rng.index(n)));
    }
    for (std::uint64_t trial = 0; trial < 8; ++trial) {
      const auto from = static_cast<NodeId>(rng.index(n));
      std::vector<Weight> out(targets.size());
      f.analytic->distances(from, targets, out.data());
      for (std::size_t i = 0; i < targets.size(); ++i) {
        EXPECT_EQ(out[i], f.analytic->closed_form(from, targets[i])) << f.name;
      }
    }
  }
}

TEST(AnalyticMetric, PathsAreByteIdenticalToDense) {
  for (const auto& f : all_fixtures()) {
    const DenseMetric dense(*f.graph);
    const auto n = static_cast<NodeId>(f.graph->num_nodes());
    // Every pair on the smaller fixtures; seeded pairs on the larger ones.
    if (n <= 36) {
      for (NodeId u = 0; u < n; ++u) {
        for (NodeId v = 0; v < n; ++v) {
          ASSERT_EQ(f.analytic->path(u, v), dense.path(u, v))
              << f.name << " path(" << u << "," << v << ")";
        }
      }
    } else {
      Rng rng(11);
      for (int i = 0; i < 200; ++i) {
        const auto u = static_cast<NodeId>(rng.index(n));
        const auto v = static_cast<NodeId>(rng.index(n));
        ASSERT_EQ(f.analytic->path(u, v), dense.path(u, v))
            << f.name << " path(" << u << "," << v << ")";
      }
    }
  }
}

TEST(AnalyticMetric, PathsAreMetricConsistent) {
  for (const auto& f : all_fixtures()) {
    const auto n = static_cast<NodeId>(f.graph->num_nodes());
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
      const auto u = static_cast<NodeId>(rng.index(n));
      const auto v = static_cast<NodeId>(rng.index(n));
      const auto p = f.analytic->path(u, v);
      ASSERT_GE(p.size(), 1u);
      EXPECT_EQ(p.front(), u) << f.name;
      EXPECT_EQ(p.back(), v) << f.name;
      Weight total = 0;
      for (std::size_t k = 0; k + 1 < p.size(); ++k) {
        Weight hop = kInfiniteWeight;
        for (const Arc& a : f.graph->neighbors(p[k])) {
          if (a.to == p[k + 1]) hop = std::min(hop, a.weight);
        }
        ASSERT_LT(hop, kInfiniteWeight)
            << f.name << " non-edge " << p[k] << "->" << p[k + 1];
        total += hop;
      }
      EXPECT_EQ(total, f.analytic->distance(u, v)) << f.name;
    }
  }
}

TEST(AnalyticMetric, DetectionRecoversEveryFamily) {
  for (const auto& f : all_fixtures()) {
    const auto detected = make_analytic_metric(*f.graph);
    ASSERT_NE(detected, nullptr) << f.name;
    EXPECT_EQ(detected->kind(), f.kind) << f.name;
    // The detected oracle answers from the caller's graph, not the
    // recovery candidate's copy.
    EXPECT_EQ(&detected->graph(), f.graph) << f.name;
  }
}

TEST(AnalyticMetric, DetectionRejectsGenericGraphs) {
  // Butterfly is a studied family without a closed form here.
  const Butterfly bf(3);
  EXPECT_EQ(make_analytic_metric(bf.graph), nullptr);
  // A perturbed grid (one extra chord) must fall out of the family.
  GraphBuilder b(9);
  const Grid g(3, 3);
  for (NodeId u = 0; u < 9; ++u) {
    for (const Arc& a : g.graph.neighbors(u)) {
      if (u < a.to) b.add_edge(u, a.to, a.weight);
    }
  }
  b.add_edge(0, 8, 1);
  EXPECT_EQ(make_analytic_metric(b.build()), nullptr);
}

TEST(AnalyticMetric, AutoMetricFallsBackToLazy) {
  const Butterfly bf(2);
  const auto m = make_auto_metric(bf.graph);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(dynamic_cast<AnalyticMetric*>(m.get()), nullptr);
  const DenseMetric dense(bf.graph);
  for (NodeId u = 0; u < bf.graph.num_nodes(); ++u) {
    for (NodeId v = 0; v < bf.graph.num_nodes(); ++v) {
      EXPECT_EQ(m->distance(u, v), dense.distance(u, v));
    }
  }
}

TEST(AnalyticMetric, AutoMetricPicksAnalyticOnStructuredGraphs) {
  const ClusterGraph cg(3, 3, 5);
  const auto m = make_auto_metric(cg.graph);
  ASSERT_NE(m, nullptr);
  const auto* analytic = dynamic_cast<AnalyticMetric*>(m.get());
  ASSERT_NE(analytic, nullptr);
  EXPECT_EQ(analytic->kind(), TopologyKind::kCluster);
}

TEST(DetectTopology, RecognizesNewFamilies) {
  EXPECT_EQ(detect_topology(Clique(5).graph), TopologyKind::kClique);
  EXPECT_EQ(detect_topology(Hypercube(3).graph), TopologyKind::kHypercube);
  EXPECT_EQ(detect_topology(BlockGrid(4).graph), TopologyKind::kBlockGrid);
  EXPECT_EQ(detect_topology(BlockTree(4).graph), TopologyKind::kBlockTree);
  // Degenerate members of the new families keep their canonical kinds.
  EXPECT_EQ(detect_topology(Clique(2).graph), TopologyKind::kLine);
  EXPECT_EQ(detect_topology(Hypercube(1).graph), TopologyKind::kLine);
  EXPECT_EQ(detect_topology(Hypercube(2).graph), TopologyKind::kGrid);
}

TEST(DetectTopology, SameShapeImpostorsAreRejected) {
  // A relabeled path: a Line(5)'s shape, not its CSR.
  GraphBuilder path(5);
  for (auto [u, v] :
       {std::pair<NodeId, NodeId>{0, 2}, {2, 1}, {1, 3}, {3, 4}}) {
    path.add_edge(u, v);
  }
  EXPECT_EQ(detect_topology(path.build()), std::nullopt);
  // Two triangles bridged between non-bridge nodes: ClusterGraph(2, 3, 5)'s
  // shape, not its CSR.
  GraphBuilder bridged(6);
  for (NodeId c : {0u, 3u}) {
    bridged.add_edge(c, c + 1);
    bridged.add_edge(c, c + 2);
    bridged.add_edge(c + 1, c + 2);
  }
  bridged.add_edge(1, 4, 5);
  EXPECT_EQ(recover_cluster(bridged.build()), nullptr);
}

TEST(DetectTopology, ShapeMismatchLeavesAdjacencyUnbuilt) {
  // No family shares Butterfly(3)'s shape, so no candidate's CSR (nor the
  // input's) is ever built.
  const Butterfly bf(3);
  EXPECT_EQ(detect_topology(bf.graph), std::nullopt);
  EXPECT_FALSE(bf.graph.materialized());
}

TEST(DenseMetricGuard, RefusesOverCapMatrices) {
  const Line line(64);
  // 64² × 8 B = 32 KiB > 16 KiB cap.
  EXPECT_THROW(DenseMetric(line.graph, nullptr, 16 << 10), Error);
  // The same graph fits a 32 KiB budget.
  EXPECT_NO_THROW(DenseMetric(line.graph, nullptr, 32 << 10));
}

TEST(DenseMetricGuard, CountsProjectedBytes) {
  TelemetryRegistry::global().reset();
  const Line line(10);
  const DenseMetric m(line.graph);
  (void)m;
  const auto snap = TelemetryRegistry::global().snapshot();
  std::uint64_t bytes = 0;
  for (const auto& [name, v] : snap.counters) {
    if (name == "metric.dense_bytes") bytes = v;
  }
  EXPECT_EQ(bytes, 10u * 10u * sizeof(Weight));
}

}  // namespace
}  // namespace dtm
