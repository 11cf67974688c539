// Tests for the dependency graph and the §2.3 greedy coloring schedule.
#include <gtest/gtest.h>

#include <tuple>

#include "core/generators.hpp"
#include "lb/bounds.hpp"
#include "sched/dependency_graph.hpp"
#include "sched/greedy.hpp"
#include "test_util.hpp"
#include "graph/topologies/clique.hpp"
#include "graph/topologies/grid.hpp"
#include "graph/topologies/hypercube.hpp"
#include "util/rng.hpp"

namespace dtm {
namespace {

Instance small_conflict_instance(const Clique& c) {
  // T0 {o0}, T1 {o0,o1}, T2 {o1}, T3 {} on a 5-clique.
  InstanceBuilder b(c.graph, 2);
  b.add_transaction(0, {0});
  b.add_transaction(1, {0, 1});
  b.add_transaction(2, {1});
  b.add_transaction(3, {});
  b.set_object_home(0, 0);
  b.set_object_home(1, 1);
  return b.build();
}

TEST(DependencyGraph, EdgesFollowSharedObjects) {
  const Clique c(5);
  const Instance inst = small_conflict_instance(c);
  const DenseMetric m(c.graph);
  const DependencyGraph h = build_dependency_graph(inst, m);
  ASSERT_EQ(h.size(), 4u);
  EXPECT_EQ(h.degree(0), 1u);  // T0 - T1
  EXPECT_EQ(h.degree(1), 2u);  // T1 - T0, T1 - T2
  EXPECT_EQ(h.degree(2), 1u);
  EXPECT_EQ(h.degree(3), 0u);
  EXPECT_EQ(h.max_degree, 2u);
  EXPECT_EQ(h.max_edge_weight, 1);
  EXPECT_EQ(h.weighted_degree(), 2);
}

TEST(DependencyGraph, SubsetRestriction) {
  const Clique c(5);
  const Instance inst = small_conflict_instance(c);
  const DenseMetric m(c.graph);
  const std::vector<TxnId> subset = {0, 2};
  const DependencyGraph h = build_dependency_graph(inst, m, subset);
  EXPECT_EQ(h.size(), 2u);
  // T0 and T2 share nothing: no edges.
  EXPECT_EQ(h.degree(0), 0u);
  EXPECT_EQ(h.degree(1), 0u);
}

TEST(DependencyGraph, MultiObjectConflictsDeduplicated) {
  const Clique c(3);
  InstanceBuilder b(c.graph, 2);
  b.add_transaction(0, {0, 1});
  b.add_transaction(1, {0, 1});  // shares two objects with T0
  const Instance inst = b.build();
  const DenseMetric m(c.graph);
  const DependencyGraph h = build_dependency_graph(inst, m);
  EXPECT_EQ(h.degree(0), 1u);
}

TEST(DependencyGraph, WeightsAreDistances) {
  const Grid g(4);
  InstanceBuilder b(g.graph, 1);
  b.add_transaction(g.node_at(0, 0), {0});
  b.add_transaction(g.node_at(3, 3), {0});
  const Instance inst = b.build();
  const DenseMetric m(g.graph);
  const DependencyGraph h = build_dependency_graph(inst, m);
  EXPECT_EQ(h.max_edge_weight, 6);
}

TEST(DependencyGraph, RejectsDuplicateSubset) {
  const Clique c(3);
  InstanceBuilder b(c.graph, 1);
  b.add_transaction(0, {0});
  const Instance inst = b.build();
  const DenseMetric m(c.graph);
  const std::vector<TxnId> dup = {0, 0};
  EXPECT_THROW(build_dependency_graph(inst, m, dup), Error);
  const std::vector<TxnId> unknown = {0, 1};
  EXPECT_THROW(build_dependency_graph(inst, m, unknown), Error);
}

// ---------------------------------------------------------- greedy_color

/// Checks the coloring invariant: adjacent transactions' times differ by at
/// least the connecting edge weight.
void expect_valid_coloring(const Instance& inst, const Metric& m,
                           const ColoredSubset& cs) {
  const DependencyGraph h = build_dependency_graph(inst, m, cs.txns);
  for (std::size_t i = 0; i < h.size(); ++i) {
    for (const DependencyEdge& e : h.neighbors(i)) {
      const Time a = cs.local_time[i];
      const Time b = cs.local_time[e.neighbor];
      EXPECT_GE(std::abs(a - b), e.weight)
          << "T" << h.txns[i] << " vs T" << h.txns[e.neighbor];
    }
  }
}

class GreedyColoringProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GreedyColoringProperty, InvariantHoldsOnRandomInstances) {
  const auto [seed, rule_idx] = GetParam();
  const ColoringRule rule =
      rule_idx == 0 ? ColoringRule::kPaperPigeonhole : ColoringRule::kFirstFit;
  Rng rng(static_cast<std::uint64_t>(seed) * 131 + 7);
  const Grid g(5);
  const Instance inst =
      generate_uniform(g.graph, {.num_objects = 6, .objects_per_txn = 2}, rng);
  const DenseMetric m(g.graph);
  std::vector<TxnId> all(inst.num_transactions());
  for (TxnId t = 0; t < all.size(); ++t) all[t] = t;
  const ColoredSubset cs = greedy_color(inst, m, all, rule);
  expect_valid_coloring(inst, m, cs);
  // Pigeonhole bound: duration <= Γ+1.
  if (rule == ColoringRule::kPaperPigeonhole) {
    const DependencyGraph h = build_dependency_graph(inst, m);
    EXPECT_LE(cs.duration, h.weighted_degree() + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, GreedyColoringProperty,
                         ::testing::Combine(::testing::Range(0, 10),
                                            ::testing::Values(0, 1)));

TEST(GreedyColor, FirstFitNeverWorseThanPigeonhole) {
  Rng rng(77);
  const Grid g(6);
  for (int trial = 0; trial < 10; ++trial) {
    const Instance inst = generate_uniform(
        g.graph, {.num_objects = 8, .objects_per_txn = 3}, rng);
    const DenseMetric m(g.graph);
    std::vector<TxnId> all(inst.num_transactions());
    for (TxnId t = 0; t < all.size(); ++t) all[t] = t;
    const auto ph = greedy_color(inst, m, all, ColoringRule::kPaperPigeonhole);
    const auto ff = greedy_color(inst, m, all, ColoringRule::kFirstFit);
    EXPECT_LE(ff.duration, ph.duration);
  }
}

TEST(GreedyColor, ConflictFreeInstancesAllRunAtStepOne) {
  const Clique c(6);
  InstanceBuilder b(c.graph, 6);
  for (NodeId v = 0; v < 6; ++v) {
    b.add_transaction(v, {static_cast<ObjectId>(v)});
    b.set_object_home(static_cast<ObjectId>(v), v);
  }
  const Instance inst = b.build();
  const DenseMetric m(c.graph);
  std::vector<TxnId> all(6);
  for (TxnId t = 0; t < 6; ++t) all[t] = t;
  const auto cs = greedy_color(inst, m, all, ColoringRule::kPaperPigeonhole);
  EXPECT_EQ(cs.duration, 1);
}

TEST(GreedyColor, ColoringOrdersAllValid) {
  Rng rng(5);
  const Hypercube h(4);
  const Instance inst =
      generate_uniform(h.graph, {.num_objects = 5, .objects_per_txn = 2}, rng);
  const DenseMetric m(h.graph);
  std::vector<TxnId> all(inst.num_transactions());
  for (TxnId t = 0; t < all.size(); ++t) all[t] = t;
  for (ColoringOrder ord : {ColoringOrder::kById, ColoringOrder::kByDegreeDesc,
                            ColoringOrder::kRandom}) {
    Rng order_rng(9);
    const auto cs =
        greedy_color(inst, m, all, ColoringRule::kFirstFit, ord, &order_rng);
    expect_valid_coloring(inst, m, cs);
  }
}

// ------------------------------------------------------- GreedyScheduler

TEST(GreedyScheduler, FeasibleOnCliqueWorkloads) {
  const Clique c(12);
  const DenseMetric m(c.graph);
  Rng rng(21);
  for (int trial = 0; trial < 5; ++trial) {
    const Instance inst = generate_uniform(
        c.graph,
        {.num_objects = 6, .objects_per_txn = 2,
         .placement = ObjectPlacement::kRandomNode},
        rng);
    GreedyScheduler sched;
    test::run_and_check(sched, inst, m);
  }
}

TEST(GreedyScheduler, CliqueBoundKEllPlusShift) {
  // Theorem 1's accounting: the dependency graph colors with <= k·ℓ + 1
  // colors, plus at most 1 step of initial positioning on a clique.
  const Clique c(16);
  const DenseMetric m(c.graph);
  Rng rng(22);
  for (int trial = 0; trial < 10; ++trial) {
    const Instance inst = generate_uniform(
        c.graph, {.num_objects = 8, .objects_per_txn = 2}, rng);
    const auto k = static_cast<Time>(inst.max_objects_per_txn());
    const auto ell = static_cast<Time>(inst.max_requesters());
    GreedyScheduler sched;
    const Schedule s = test::run_and_check(sched, inst, m);
    EXPECT_LE(s.makespan(), k * ell + 2);
  }
}

TEST(GreedyScheduler, CompactIsNeverWorse) {
  const Grid g(6);
  const DenseMetric m(g.graph);
  Rng rng(23);
  for (int trial = 0; trial < 5; ++trial) {
    const Instance inst = generate_uniform(
        g.graph, {.num_objects = 6, .objects_per_txn = 2}, rng);
    GreedyScheduler plain{
        GreedyOptions{ColoringRule::kFirstFit, ColoringOrder::kById, false, 1}};
    GreedyScheduler compacted{
        GreedyOptions{ColoringRule::kFirstFit, ColoringOrder::kById, true, 1}};
    const Schedule a = test::run_and_check(plain, inst, m);
    const Schedule b = test::run_and_check(compacted, inst, m);
    EXPECT_LE(b.makespan(), a.makespan());
  }
}

TEST(GreedyScheduler, ApproximationWithinKBoundOnClique) {
  // Measured ratio vs the certified lower bound stays within O(k) on
  // cliques (Theorem 1) — assert a generous 2k+3 cap.
  const Clique c(20);
  const DenseMetric m(c.graph);
  Rng rng(24);
  for (std::size_t k : {1u, 2u, 3u}) {
    const Instance inst = generate_uniform(
        c.graph, {.num_objects = 5, .objects_per_txn = k}, rng);
    GreedyScheduler sched;
    const Schedule s = test::run_and_check(sched, inst, m);
    const InstanceBounds lb = compute_bounds(inst, m);
    ASSERT_GE(lb.makespan_lb, 1);
    const double ratio = static_cast<double>(s.makespan()) /
                         static_cast<double>(lb.makespan_lb);
    EXPECT_LE(ratio, 2.0 * static_cast<double>(k) + 3.0) << "k=" << k;
  }
}

TEST(GreedyScheduler, NameReflectsOptions) {
  EXPECT_EQ(GreedyScheduler{}.name(), "greedy-paper");
  GreedyOptions ff;
  ff.rule = ColoringRule::kFirstFit;
  EXPECT_EQ(GreedyScheduler{ff}.name(), "greedy-ff");
  ff.compact = true;
  EXPECT_EQ(GreedyScheduler{ff}.name(), "greedy-ff-compact");
}

}  // namespace
}  // namespace dtm
