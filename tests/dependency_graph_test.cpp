// Equivalence tests for the row-union CSR dependency-graph builder: the
// CSR form must encode exactly the conflict relation a naive set-based
// construction produces, with distances matching the metric, on random
// instances, on subset restrictions, on the scheduling windows of a
// stream, and for the read/write-conflict variant.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "core/generators.hpp"
#include "core/rw.hpp"
#include "graph/metric.hpp"
#include "graph/topologies/clique.hpp"
#include "graph/topologies/grid.hpp"
#include "sched/dependency_graph.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dtm {
namespace {

/// Reference conflict relation: neighbor sets per local index, built the
/// obvious way (no CSR, no batching).
std::vector<std::set<TxnId>> naive_conflicts(const Instance& inst,
                                             const std::vector<TxnId>& txns) {
  std::vector<TxnId> local(inst.num_transactions(), kInvalidTxn);
  for (std::size_t i = 0; i < txns.size(); ++i) {
    local[txns[i]] = static_cast<TxnId>(i);
  }
  std::vector<std::set<TxnId>> adj(txns.size());
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    std::vector<TxnId> members;
    for (TxnId t : inst.requesters(o)) {
      if (local[t] != kInvalidTxn) members.push_back(local[t]);
    }
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        adj[members[i]].insert(members[j]);
        adj[members[j]].insert(members[i]);
      }
    }
  }
  return adj;
}

/// Reference read/write conflict relation over all transactions: a pair of
/// requesters of o conflicts iff at least one of them writes o.
std::vector<std::set<TxnId>> naive_rw_conflicts(const Instance& inst,
                                                const WriteSets& writes) {
  std::vector<std::set<TxnId>> adj(inst.num_transactions());
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    for (TxnId a : inst.requesters(o)) {
      for (TxnId b : inst.requesters(o)) {
        if (a == b) continue;
        const auto& wa = writes[a];
        const auto& wb = writes[b];
        if (std::find(wa.begin(), wa.end(), o) != wa.end() ||
            std::find(wb.begin(), wb.end(), o) != wb.end()) {
          adj[a].insert(b);
        }
      }
    }
  }
  return adj;
}

void expect_matches(const Instance& inst, const Metric& metric,
                    const DependencyGraph& h, const std::vector<TxnId>& txns,
                    const std::vector<std::set<TxnId>>& adj) {
  ASSERT_EQ(h.txns, txns);
  ASSERT_EQ(h.offsets.size(), txns.size() + 1);
  ASSERT_EQ(adj.size(), txns.size());
  std::size_t expect_max_degree = 0;
  Weight expect_max_weight = 0;
  for (std::size_t i = 0; i < txns.size(); ++i) {
    const auto nbrs = h.neighbors(i);
    ASSERT_EQ(nbrs.size(), adj[i].size()) << "local node " << i;
    ASSERT_EQ(h.degree(i), adj[i].size());
    // CSR neighbor lists come out sorted and deduplicated.
    std::size_t k = 0;
    for (TxnId expected : adj[i]) {  // std::set iterates ascending
      EXPECT_EQ(nbrs[k].neighbor, expected);
      EXPECT_EQ(nbrs[k].weight,
                metric.distance(inst.txn(txns[i]).home,
                                inst.txn(txns[expected]).home));
      expect_max_weight = std::max(expect_max_weight, nbrs[k].weight);
      ++k;
    }
    expect_max_degree = std::max(expect_max_degree, adj[i].size());
  }
  EXPECT_EQ(h.max_degree, expect_max_degree);
  EXPECT_EQ(h.max_edge_weight, expect_max_weight);
  EXPECT_EQ(h.edges.size(), h.offsets.back());
}

void expect_matches_naive(const Instance& inst, const Metric& metric,
                          const DependencyGraph& h,
                          const std::vector<TxnId>& txns) {
  expect_matches(inst, metric, h, txns, naive_conflicts(inst, txns));
}

TEST(DependencyGraphCsr, MatchesNaiveOnRandomInstances) {
  const Grid topo(6);
  const DenseMetric metric(topo.graph);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const Instance inst = generate_uniform(
        topo.graph, {.num_objects = 12, .objects_per_txn = 3}, rng);
    std::vector<TxnId> all(inst.num_transactions());
    for (TxnId t = 0; t < all.size(); ++t) all[t] = t;
    expect_matches_naive(inst, metric, build_dependency_graph(inst, metric),
                         all);
  }
}

TEST(DependencyGraphCsr, MatchesNaiveOnSubsets) {
  const Clique topo(24);
  const DenseMetric metric(topo.graph);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const Instance inst = generate_uniform(
        topo.graph, {.num_objects = 6, .objects_per_txn = 2}, rng);
    // Every third transaction, so plenty of requester pairs fall outside
    // the subset and must be skipped.
    std::vector<TxnId> subset;
    for (TxnId t = 0; t < inst.num_transactions(); t += 3) {
      subset.push_back(t);
    }
    expect_matches_naive(inst, metric,
                         build_dependency_graph(inst, metric, subset), subset);
  }
  // k = 3 on 5 objects: the subset cuts every requester list, and most
  // pairs share two or three objects, so rows union three lists that
  // overlap heavily.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const Instance inst = generate_uniform(
        topo.graph, {.num_objects = 5, .objects_per_txn = 3}, rng);
    std::vector<TxnId> subset;
    for (TxnId t = seed % 2; t < inst.num_transactions(); t += 2) {
      subset.push_back(t);
    }
    expect_matches_naive(inst, metric,
                         build_dependency_graph(inst, metric, subset), subset);
  }
}

TEST(DependencyGraphCsr, TransactionSpanMatchesNaiveOnStreamWindows) {
  // A materialized stream, as the streaming runtime holds it: ids ==
  // indices, homes revisited (120 arrivals on 16 nodes), so conflicting
  // pairs at distance 0 occur. Each window's H over the transaction span
  // must match the naive relation restricted to that window.
  const Grid topo(4);
  const DenseMetric metric(topo.graph);
  for (const ArrivalModel model :
       {ArrivalModel::kPoisson, ArrivalModel::kBursty,
        ArrivalModel::kHotObject}) {
    ArrivalStreamOptions opt;
    opt.num_txns = 120;
    opt.num_objects = 6;
    opt.objects_per_txn = 2;
    opt.rate = 2.0;
    auto src = make_arrival_source(model, topo.graph, opt, 3);
    InstanceBuilder b(topo.graph, opt.num_objects);
    b.allow_shared_homes();
    std::vector<Time> arrival;
    ArrivingTxn t;
    while (src->next(t)) {
      b.add_transaction(t.home, t.objects);
      arrival.push_back(t.arrival);
    }
    const Instance inst = b.build();
    ASSERT_EQ(inst.num_transactions(), opt.num_txns);

    constexpr Time kWindow = 8;
    std::size_t windows = 0, zero_weight_arcs = 0;
    for (std::size_t lo = 0; lo < arrival.size();) {
      std::vector<TxnId> window;
      const Time w = arrival[lo] / kWindow;
      for (; lo < arrival.size() && arrival[lo] / kWindow == w; ++lo) {
        window.push_back(static_cast<TxnId>(lo));
      }
      const DependencyGraph h = build_dependency_graph(
          inst.transactions(), inst.num_objects(), metric, window);
      expect_matches_naive(inst, metric, h, window);
      for (const DependencyEdge& e : h.edges) zero_weight_arcs += e.weight == 0;
      ++windows;
    }
    EXPECT_GT(windows, 3u);
    if (model == ArrivalModel::kHotObject) {
      // Every hot-object transaction shares object 0; with 16 homes and
      // ~16 transactions per window some pair shares a home.
      EXPECT_GT(zero_weight_arcs, 0u);
    }
  }
}

TEST(DependencyGraphCsr, TransactionSpanRejectsBadInput) {
  const Clique topo(4);
  const DenseMetric metric(topo.graph);
  const std::vector<Transaction> txns = {{0, 0, {0, 1}}, {1, 1, {1, 2}}};
  const std::vector<TxnId> both = {0, 1};
  EXPECT_EQ(build_dependency_graph(txns, 3, metric, both).edges.size(), 2u);
  // Object 2 is outside a 2-object universe.
  EXPECT_THROW(build_dependency_graph(txns, 2, metric, both), Error);
  const std::vector<TxnId> dup = {1, 1};
  EXPECT_THROW(build_dependency_graph(txns, 3, metric, dup), Error);
  const std::vector<TxnId> unknown = {0, 2};
  EXPECT_THROW(build_dependency_graph(txns, 3, metric, unknown), Error);
  // A repeated object would list its requester twice and emit a
  // duplicate arc.
  const std::vector<Transaction> repeated = {{0, 0, {1, 1}}, {1, 1, {1}}};
  EXPECT_THROW(build_dependency_graph(repeated, 3, metric, both), Error);
}

TEST(DependencyGraphCsr, ReadWriteMatchesNaive) {
  const Grid topo(5);
  const DenseMetric metric(topo.graph);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    const Instance inst = generate_uniform(
        topo.graph,
        {.num_objects = 6, .objects_per_txn = 1 + seed % 4}, rng);
    // All-read (no edges), mixed, and all-write (the object graph).
    for (const double wf : {0.0, 0.3, 0.6, 1.0}) {
      const WriteSets writes = generate_write_sets(inst, wf, rng);
      std::vector<TxnId> all(inst.num_transactions());
      for (TxnId t = 0; t < all.size(); ++t) all[t] = t;
      const DependencyGraph h =
          build_rw_dependency_graph(inst, writes, metric);
      expect_matches(inst, metric, h, all, naive_rw_conflicts(inst, writes));
      if (wf == 1.0) {
        const DependencyGraph full = build_dependency_graph(inst, metric);
        EXPECT_EQ(h.offsets, full.offsets);
        EXPECT_EQ(h.edges.size(), full.edges.size());
      }
      if (wf == 0.0) {
        EXPECT_TRUE(h.edges.empty());
      }
    }
  }
}

TEST(DependencyGraphCsr, ParallelEdgesCollapseToOne) {
  // Two transactions sharing several objects must still produce a single
  // CSR edge each way.
  const Clique topo(4);
  const DenseMetric metric(topo.graph);
  InstanceBuilder b(topo.graph, /*num_objects=*/3);
  b.set_object_home(0, 0);
  b.set_object_home(1, 1);
  b.set_object_home(2, 2);
  b.add_transaction(1, {0, 1, 2});
  b.add_transaction(2, {0, 1, 2});
  const Instance inst = b.build();
  const DependencyGraph h = build_dependency_graph(inst, metric);
  EXPECT_EQ(h.degree(0), 1u);
  EXPECT_EQ(h.degree(1), 1u);
  EXPECT_EQ(h.edges.size(), 2u);
  EXPECT_EQ(h.neighbors(0)[0].neighbor, 1u);
  EXPECT_EQ(h.neighbors(1)[0].neighbor, 0u);
}

TEST(DependencyGraphCsr, EmptyAndConflictFreeInstances) {
  const Clique topo(4);
  const DenseMetric metric(topo.graph);
  InstanceBuilder b(topo.graph, /*num_objects=*/2);
  b.set_object_home(1, 1);
  b.add_transaction(0, {0});
  b.add_transaction(3, {1});
  const Instance inst = b.build();
  const DependencyGraph h = build_dependency_graph(inst, metric);
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h.edges.size(), 0u);
  EXPECT_EQ(h.max_degree, 0u);
  EXPECT_EQ(h.max_edge_weight, 0);
  EXPECT_EQ(h.weighted_degree(), 0);
}

}  // namespace
}  // namespace dtm
