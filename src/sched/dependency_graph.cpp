#include "sched/dependency_graph.hpp"

#include <algorithm>

namespace dtm {

DependencyGraph build_dependency_graph(const Instance& inst,
                                       const Metric& metric,
                                       std::span<const TxnId> txns) {
  std::vector<TxnId> sorted(txns.begin(), txns.end());
  std::sort(sorted.begin(), sorted.end());
  DTM_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                  sorted.end(),
              "dependency graph: duplicate transaction in subset");

  // Map global TxnId -> local index (kInvalidTxn marks "not in subset").
  std::vector<TxnId> local(inst.num_transactions(), kInvalidTxn);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    local[sorted[i]] = static_cast<TxnId>(i);
  }

  // For every object, connect all pairs of its in-subset requesters.
  return detail::assemble_dependency_csr(
      inst, metric, std::move(sorted), [&](const auto& emit) {
        std::vector<TxnId> members;  // reused across objects
        for (ObjectId o = 0; o < inst.num_objects(); ++o) {
          members.clear();
          for (TxnId t : inst.requesters(o)) {
            if (local[t] != kInvalidTxn) members.push_back(local[t]);
          }
          for (std::size_t i = 0; i < members.size(); ++i) {
            for (std::size_t j = i + 1; j < members.size(); ++j) {
              emit(members[i], members[j]);
            }
          }
        }
      });
}

DependencyGraph build_dependency_graph(const Instance& inst,
                                       const Metric& metric) {
  std::vector<TxnId> all(inst.num_transactions());
  for (TxnId t = 0; t < all.size(); ++t) all[t] = t;
  return build_dependency_graph(inst, metric, all);
}

DependencyGraph merge_shard_subgraphs(std::span<const TxnId> window,
                                      std::span<const ShardSubgraph> views) {
  const std::size_t n = window.size();
  const std::size_t S = views.size();
  DependencyGraph h;
  h.txns.assign(window.begin(), window.end());
  h.offsets.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t deg = 0;
    for (const ShardSubgraph& v : views) deg += v.offsets[i + 1] - v.offsets[i];
    h.offsets[i + 1] = h.offsets[i] + static_cast<std::uint32_t>(deg);
    h.max_degree = std::max(h.max_degree, deg);
  }
  // Per-node slices ascend in every view and a conflict pair lives in
  // exactly one view, so repeatedly taking the smallest head neighbor
  // yields the batch builder's ascending-local-index order with no sort.
  h.edges.resize(h.offsets[n]);
  std::vector<std::uint32_t> cur(S);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t s = 0; s < S; ++s) cur[s] = views[s].offsets[i];
    for (std::uint32_t e = h.offsets[i]; e < h.offsets[i + 1]; ++e) {
      std::size_t best = S;
      for (std::size_t s = 0; s < S; ++s) {
        if (cur[s] == views[s].offsets[i + 1]) continue;
        if (best == S || views[s].edges[cur[s]].neighbor <
                             views[best].edges[cur[best]].neighbor) {
          best = s;
        }
      }
      DTM_ASSERT(best < S);
      h.edges[e] = views[best].edges[cur[best]++];
    }
  }
  for (const ShardSubgraph& v : views) {
    h.max_edge_weight = std::max(h.max_edge_weight, v.max_edge_weight);
  }
  return h;
}

// --- incremental graph -------------------------------------------------

IncrementalConflictGraph::IncrementalConflictGraph(const Metric& metric,
                                                   std::size_t num_objects)
    : metric_(&metric), pools_(1), live_req_(num_objects) {}

IncrementalConflictGraph::IncrementalConflictGraph(
    const Metric& metric, std::vector<std::uint32_t> object_shard,
    std::size_t num_shards)
    : metric_(&metric), pools_(num_shards),
      object_shard_(std::move(object_shard)), live_req_(object_shard_.size()) {
  DTM_REQUIRE(num_shards >= 1, "incremental graph: need at least one shard");
  for (std::uint32_t s : object_shard_) {
    DTM_REQUIRE(s < num_shards,
                "incremental graph: object shard " << s << " out of range");
  }
}

void IncrementalConflictGraph::push_arc(Pool& pool, TxnId owner, TxnId to,
                                        Weight w) {
  if (owner >= pool.head.size()) {
    pool.head.resize(owner + 1, -1);
    pool.tail.resize(owner + 1, -1);
  }
  const auto idx = static_cast<std::int32_t>(pool.arcs.size());
  pool.arcs.push_back({to, w, -1});
  if (pool.tail[owner] == -1) {
    pool.head[owner] = idx;
  } else {
    pool.arcs[pool.tail[owner]].next = idx;
  }
  pool.tail[owner] = idx;
  ++num_arcs_;
}

void IncrementalConflictGraph::add_txn(TxnId t, NodeId home,
                                       std::span<const ObjectId> objects) {
  DTM_REQUIRE(t == num_txns_,
              "incremental graph: ids must arrive dense and in order "
              "(expected T"
                  << num_txns_ << ", got T" << t << ")");
  ++num_txns_;
  home_.push_back(home);
  ++live_;

  // Collect (partner, owning shard) over all shared objects; a pair
  // sharing several objects is deduplicated (the CSR builder dedups too)
  // keeping the smallest object's shard, so every pair lands in exactly
  // one pool no matter how the ownership question is asked later.
  auto& partners = partner_scratch_;
  partners.clear();
  for (ObjectId o : objects) {
    DTM_REQUIRE(o < live_req_.size(),
                "incremental graph: object id " << o << " out of range");
    const std::uint32_t s = object_shard_.empty() ? 0 : object_shard_[o];
    for (TxnId p : live_req_[o]) partners.emplace_back(p, s);
    live_req_[o].push_back(t);
  }
  // `objects` ascend, so the first entry per partner is the smallest
  // shared object's shard; stable_sort by partner keeps it first.
  std::stable_sort(partners.begin(), partners.end(),
                   [](const auto& x, const auto& y) {
                     return x.first < y.first;
                   });
  partners.erase(std::unique(partners.begin(), partners.end(),
                             [](const auto& x, const auto& y) {
                               return x.first == y.first;
                             }),
                 partners.end());

  if (!partners.empty()) {
    // One batched distance query for the delta, matching the builder's
    // access pattern (DenseMetric streams a matrix row).
    target_scratch_.resize(partners.size());
    dist_scratch_.resize(partners.size());
    for (std::size_t i = 0; i < partners.size(); ++i) {
      target_scratch_[i] = home_[partners[i].first];
    }
    metric_->distances(home, target_scratch_, dist_scratch_.data());
    for (std::size_t i = 0; i < partners.size(); ++i) {
      const auto [p, s] = partners[i];
      // Streams revisit homes, so two conflicting transactions can share a
      // node (distance 0). The single-copy object still serves one commit
      // per step — exactly what the stepwise engine enforces — so conflict
      // edges are at least 1 here, where the batch builder (one txn per
      // node) never sees a zero.
      const Weight w = std::max<Weight>(dist_scratch_[i], 1);
      // Tail-appended in ascending partner order; p's chain gains t, the
      // largest id so far — both chains stay ascending by neighbor.
      push_arc(pools_[s], t, p, w);
      push_arc(pools_[s], p, t, w);
      max_w_ = std::max(max_w_, w);
    }
    telemetry::count("stream.dep_edges", partners.size());
  }
}

void IncrementalConflictGraph::retire(TxnId t,
                                      std::span<const ObjectId> objects) {
  DTM_REQUIRE(t < num_txns_, "incremental graph: retiring unknown txn");
  for (ObjectId o : objects) {
    auto& req = live_req_[o];
    auto it = std::find(req.begin(), req.end(), t);
    DTM_REQUIRE(it != req.end(),
                "incremental graph: T" << t << " not live on o" << o);
    req.erase(it);
  }
  DTM_ASSERT(live_ > 0);
  --live_;
}

std::size_t IncrementalConflictGraph::arc_pool_bytes() const {
  std::size_t bytes = 0;
  for (const Pool& pool : pools_) {
    bytes += pool.arcs.size() * sizeof(Arc) +
             (pool.head.size() + pool.tail.size()) * sizeof(std::int32_t);
  }
  return bytes;
}

DependencyGraph IncrementalConflictGraph::subgraph(
    std::span<const TxnId> txns) const {
  DTM_REQUIRE(std::is_sorted(txns.begin(), txns.end()) &&
                  std::adjacent_find(txns.begin(), txns.end()) == txns.end(),
              "incremental subgraph: subset must be ascending and "
              "duplicate-free");
  std::vector<TxnId> local_of(num_txns_, kInvalidTxn);
  for (std::size_t i = 0; i < txns.size(); ++i) {
    DTM_REQUIRE(txns[i] < num_txns_,
                "incremental subgraph: T" << txns[i] << " never added");
    local_of[txns[i]] = static_cast<TxnId>(i);
  }
  std::vector<ShardSubgraph> views(pools_.size());
  for (std::size_t s = 0; s < pools_.size(); ++s) {
    shard_subgraph(s, txns, local_of, views[s]);
  }
  return merge_shard_subgraphs(txns, views);
}

void IncrementalConflictGraph::shard_subgraph(std::size_t s,
                                              std::span<const TxnId> window,
                                              std::span<const TxnId> local_of,
                                              ShardSubgraph& out) const {
  DTM_ASSERT(s < pools_.size());
  const Pool& pool = pools_[s];
  const std::size_t n = window.size();
  out.max_edge_weight = 0;
  out.offsets.assign(n + 1, 0);

  // Two passes over the chains: count, then fill in chain order (already
  // ascending by neighbor id, hence by window-local index).
  for (std::size_t i = 0; i < n; ++i) {
    DTM_ASSERT(window[i] < local_of.size());
    std::uint32_t deg = 0;
    for (std::int32_t a = chain_head(pool, window[i]); a != -1;
         a = pool.arcs[a].next) {
      if (local_of[pool.arcs[a].to] != kInvalidTxn) ++deg;
    }
    out.offsets[i + 1] = out.offsets[i] + deg;
  }
  out.edges.resize(out.offsets[n]);
  std::size_t e = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::int32_t a = chain_head(pool, window[i]); a != -1;
         a = pool.arcs[a].next) {
      const TxnId l = local_of[pool.arcs[a].to];
      if (l == kInvalidTxn) continue;
      out.edges[e++] = {l, pool.arcs[a].weight};
      out.max_edge_weight = std::max(out.max_edge_weight, pool.arcs[a].weight);
    }
  }
}

}  // namespace dtm
