// AnalyticMetric: exact closed-form distance oracle for the structured
// topology families (ROADMAP item 1, "million-node scale-out").
//
// DenseMetric's O(n²) matrix is the memory wall between laptop sweeps and
// production-scale graphs. For every family the paper studies — line, grid,
// cluster, star, clique, hypercube and the §8 block constructions — the
// shortest-path metric has a closed form in the node ids alone, so the
// oracle needs O(1) state and answers distance queries in O(1) with *zero*
// precomputation. Path reconstruction runs the same greedy descent as
// DenseMetric::path (first neighbor in CSR order whose remaining distance
// plus the arc weight matches), so returned paths are byte-identical to
// DenseMetric's on the same graph — verified by tests/analytic_metric_test.
//
// Two ways to obtain one:
//  * directly from a topology object you already built (no detection cost —
//    the million-node benches use this); the metric aliases the topology's
//    graph, so the topology must outlive the metric;
//  * from a bare Graph via make_analytic_metric(g), which runs the
//    rebuild-and-compare recovery in topologies/detect and returns nullptr
//    for graphs outside the families (a successful recovery is a proof the
//    closed form applies).
//
// make_auto_metric(g) is the scale-safe default: analytic when detection
// succeeds, LazyMetric otherwise — never O(n²).
//
// Thread-safety: all queries are const over immutable scalars; concurrent
// use is trivially safe (same contract as DenseMetric).
#pragma once

#include <memory>

#include "graph/metric.hpp"
#include "graph/topologies/block_grid.hpp"
#include "graph/topologies/block_tree.hpp"
#include "graph/topologies/clique.hpp"
#include "graph/topologies/cluster.hpp"
#include "graph/topologies/grid.hpp"
#include "graph/topologies/hypercube.hpp"
#include "graph/topologies/line.hpp"
#include "graph/topologies/star.hpp"
#include "graph/topologies/topology.hpp"

namespace dtm {

class AnalyticMetric final : public Metric {
 public:
  TopologyKind kind() const { return kind_; }

  Weight distance(NodeId u, NodeId v) const override;
  /// One loop per family: the family and the source's own terms are
  /// resolved once per batch, then each target costs a few 32-bit ops.
  /// Every id is range-checked, as in closed_form().
  void distances(NodeId from, std::span<const NodeId> targets,
                 Weight* out) const override;
  std::vector<NodeId> path(NodeId u, NodeId v) const override;

  /// The raw closed form — exact shortest distance, no telemetry count.
  /// Exposed for tests and for hot loops that account queries in bulk.
  Weight closed_form(NodeId u, NodeId v) const;

 private:
  friend std::unique_ptr<AnalyticMetric> make_analytic_metric(const Line&);
  friend std::unique_ptr<AnalyticMetric> make_analytic_metric(const Grid&);
  friend std::unique_ptr<AnalyticMetric> make_analytic_metric(
      const ClusterGraph&);
  friend std::unique_ptr<AnalyticMetric> make_analytic_metric(const Star&);
  friend std::unique_ptr<AnalyticMetric> make_analytic_metric(const Clique&);
  friend std::unique_ptr<AnalyticMetric> make_analytic_metric(
      const Hypercube&);
  friend std::unique_ptr<AnalyticMetric> make_analytic_metric(
      const BlockGrid&);
  friend std::unique_ptr<AnalyticMetric> make_analytic_metric(
      const BlockTree&);
  friend std::unique_ptr<AnalyticMetric> make_analytic_metric(const Graph&);

  // Family parameters: a = cols (grid), β (cluster/star), s (block
  // families); b = √s (block families); w = γ (cluster). Unused otherwise.
  AnalyticMetric(const Graph& g, TopologyKind kind, std::size_t a = 0,
                 std::size_t b = 0, Weight w = 1)
      : Metric(g), kind_(kind), a_(a), b_(b), w_(w) {}

  TopologyKind kind_;
  std::size_t a_;
  std::size_t b_;
  Weight w_;
};

/// Direct constructors from a built topology (no detection). The metric
/// aliases `t.graph`; the topology must outlive it.
std::unique_ptr<AnalyticMetric> make_analytic_metric(const Line& t);
std::unique_ptr<AnalyticMetric> make_analytic_metric(const Grid& t);
std::unique_ptr<AnalyticMetric> make_analytic_metric(const ClusterGraph& t);
std::unique_ptr<AnalyticMetric> make_analytic_metric(const Star& t);
std::unique_ptr<AnalyticMetric> make_analytic_metric(const Clique& t);
std::unique_ptr<AnalyticMetric> make_analytic_metric(const Hypercube& t);
std::unique_ptr<AnalyticMetric> make_analytic_metric(const BlockGrid& t);
std::unique_ptr<AnalyticMetric> make_analytic_metric(const BlockTree& t);

/// Detection-based: recovers a structured family from `g` (certified by
/// rebuild-and-compare, see topologies/detect.hpp) and returns its oracle;
/// nullptr for graphs outside the families. The metric aliases `g`.
std::unique_ptr<AnalyticMetric> make_analytic_metric(const Graph& g);

/// Scale-safe metric selection: the analytic oracle when detection
/// succeeds, LazyMetric otherwise. Never allocates O(n²).
std::unique_ptr<Metric> make_auto_metric(const Graph& g);

}  // namespace dtm
