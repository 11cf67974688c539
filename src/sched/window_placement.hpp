// Window placement: the step shared by the window-batched online
// schedulers (OnlineBatchScheduler in sched/online.hpp and StreamingRuntime
// in sim/runtime.hpp). A closed window arrives already colored by the §2.3
// greedy (local steps 1..duration); placement appends it after everything
// scheduled so far:
//
//   start     = max(horizon, close − 1)
//               + max over the window's objects o of dist(tail(o), first(o))
//   commit(T) = start + local_time(T)
//
// where tail(o) is the node of o's last scheduled requester (its home
// before any) and first(o) the home of o's first requester in the window.
// Members join each object's visit chain in color order (ties by id), every
// tail moves to its object's last requester in the window, and the horizon
// advances to start + duration. Feasibility is the triangle inequality: by
// `start` every object can have travelled from its tail to its first
// requester, and the coloring already spaces consecutive same-object
// requesters by their distance.
#pragma once

#include <span>
#include <vector>

#include "core/instance.hpp"
#include "graph/metric.hpp"
#include "sched/greedy.hpp"

namespace dtm {

class WindowPlacer {
 public:
  WindowPlacer() = default;
  /// Empty chains; object o's tail starts at `object_home[o]`. `metric`
  /// must outlive the placer.
  WindowPlacer(const Metric& metric, std::vector<NodeId> object_home);

  /// Places the window closing at step `close`. `colored.txns` index
  /// `txns` (each transaction's home and object set); writes
  /// commit[t] for every member and returns the window's start step.
  Time place(const ColoredSubset& colored, Time close,
             std::span<const Transaction> txns, std::vector<Time>& commit);

  /// Per-object visit chains, in commit order.
  const std::vector<std::vector<TxnId>>& chains() const { return chains_; }
  std::vector<std::vector<TxnId>> take_chains() { return std::move(chains_); }

 private:
  const Metric* metric_ = nullptr;
  std::vector<std::vector<TxnId>> chains_;
  std::vector<NodeId> pos_;  // chain-tail positions
  Time horizon_ = 0;

  // Per object: the last window that visited it (windows count from 1).
  std::vector<std::size_t> visited_;
  std::size_t window_ = 0;
  std::vector<std::size_t> by_color_;  // reused: members in color order
};

}  // namespace dtm
