#include "sched/dependency_graph.hpp"

#include <algorithm>
#include <memory>

namespace dtm {

namespace {

/// Writes the union of `a` and `b` (each strictly ascending) minus `self`
/// at `w`, ascending; returns the end. Branch-free step: emit the smaller
/// head, keep it unless it is `self`, advance whichever heads equal it.
TxnId* merge_union(std::span<const TxnId> a, std::span<const TxnId> b,
                   TxnId self, TxnId* w) {
  const TxnId *p = a.data(), *pe = p + a.size();
  const TxnId *q = b.data(), *qe = q + b.size();
  while (p != pe && q != qe) {
    const TxnId x = *p, y = *q;
    const TxnId v = x < y ? x : y;
    *w = v;
    w += v != self;
    p += x <= y;
    q += y <= x;
  }
  for (; p != pe; ++p) {
    *w = *p;
    w += *p != self;
  }
  for (; q != qe; ++q) {
    *w = *q;
    w += *q != self;
  }
  return w;
}

/// Writes the union of `lists` minus `self` at `w`; returns the end. Rows
/// of three or more lists fold through the scratch `a` and `b`; the common
/// one- and two-list rows merge straight into `w`.
TxnId* write_row(std::span<const std::span<const TxnId>> lists, TxnId self,
                 TxnId* w, std::vector<TxnId>& a, std::vector<TxnId>& b) {
  if (lists.empty()) return w;
  std::span<const TxnId> acc = lists[0];
  for (std::size_t j = 1; j + 1 < lists.size(); ++j) {
    b.resize(acc.size() + lists[j].size());
    acc = {b.data(), merge_union(acc, lists[j], self, b.data())};
    std::swap(a, b);  // acc's buffer moves to `a`; pointers stay valid
  }
  return merge_union(
      acc, lists.size() > 1 ? lists.back() : std::span<const TxnId>{}, self,
      w);
}

/// The one H builder. `row_lists(t, lists)` replaces `lists` with the
/// ascending local-index lists whose union is the row of transaction t.
/// Rows are staged as bare ids in an uninitialized array sized by the sum
/// of list sizes; `edges` is then reserved at the exact arc count (no
/// zero-fill) and filled with one batched distance query per row.
template <typename RowLists>
DependencyGraph build_rows(const Instance& inst, const Metric& metric,
                           std::vector<TxnId> txns,
                           const RowLists& row_lists) {
  DependencyGraph h;
  h.txns = std::move(txns);
  const std::size_t n = h.txns.size();
  std::vector<std::span<const TxnId>> lists;

  std::size_t bound = 0;
  for (std::size_t i = 0; i < n; ++i) {
    row_lists(h.txns[i], lists);
    for (const auto& l : lists) bound += l.size();
  }
  const auto stage = std::make_unique_for_overwrite<TxnId[]>(bound);
  std::vector<TxnId> a, b;
  h.offsets.assign(n + 1, 0);
  TxnId* end = stage.get();
  for (std::size_t i = 0; i < n; ++i) {
    row_lists(h.txns[i], lists);
    end = write_row(lists, static_cast<TxnId>(i), end, a, b);
    h.offsets[i + 1] = static_cast<std::uint32_t>(end - stage.get());
    h.max_degree = std::max<std::size_t>(h.max_degree,
                                         h.offsets[i + 1] - h.offsets[i]);
  }

  // Targets are the neighbors' home nodes, so a DenseMetric walks its
  // matrix row sequentially and a LazyMetric resolves the source tree once.
  std::vector<NodeId> homes(n);
  for (std::size_t i = 0; i < n; ++i) homes[i] = inst.txn(h.txns[i]).home;
  h.edges.reserve(h.offsets[n]);
  std::vector<NodeId> targets;
  std::vector<Weight> dist;
  for (std::size_t i = 0; i < n; ++i) {
    const TxnId* row = stage.get() + h.offsets[i];
    const std::size_t deg = h.offsets[i + 1] - h.offsets[i];
    if (deg == 0) continue;
    targets.resize(deg);
    dist.resize(deg);
    for (std::size_t k = 0; k < deg; ++k) targets[k] = homes[row[k]];
    metric.distances(homes[i], targets, dist.data());
    for (std::size_t k = 0; k < deg; ++k) {
      h.edges.push_back({row[k], dist[k]});
      h.max_edge_weight = std::max(h.max_edge_weight, dist[k]);
    }
  }
  telemetry::count("dep.csr_edges", h.edges.size() / 2);
  return h;
}

}  // namespace

DependencyGraph build_dependency_graph(const Instance& inst,
                                       const Metric& metric,
                                       std::span<const TxnId> txns) {
  std::vector<TxnId> sorted(txns.begin(), txns.end());
  std::sort(sorted.begin(), sorted.end());
  DTM_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                  sorted.end(),
              "dependency graph: duplicate transaction in subset");
  DTM_REQUIRE(sorted.empty() || sorted.back() < inst.num_transactions(),
              "dependency graph: transaction T" << sorted.back()
                                                << " out of range");

  // Map global TxnId -> local index (kInvalidTxn marks "not in subset").
  std::vector<TxnId> local(inst.num_transactions(), kInvalidTxn);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    local[sorted[i]] = static_cast<TxnId>(i);
  }

  // In-subset requesters (local indices, ascending) of every object the
  // subset touches, packed; slot[o] is o's list, kInvalidTxn if untouched.
  std::vector<TxnId> slot(inst.num_objects(), kInvalidTxn);
  std::vector<ObjectId> touched;
  for (TxnId t : sorted) {
    for (ObjectId o : inst.txn(t).objects) {
      if (slot[o] != kInvalidTxn) continue;
      slot[o] = static_cast<TxnId>(touched.size());
      touched.push_back(o);
    }
  }
  std::vector<std::uint32_t> member_offsets(touched.size() + 1, 0);
  std::vector<TxnId> members;
  for (std::size_t s = 0; s < touched.size(); ++s) {
    for (TxnId t : inst.requesters(touched[s])) {
      if (local[t] != kInvalidTxn) members.push_back(local[t]);
    }
    member_offsets[s + 1] = static_cast<std::uint32_t>(members.size());
  }

  return build_rows(
      inst, metric, std::move(sorted),
      [&](TxnId t, std::vector<std::span<const TxnId>>& lists) {
        lists.clear();
        for (ObjectId o : inst.txn(t).objects) {
          const TxnId s = slot[o];
          lists.emplace_back(members.data() + member_offsets[s],
                             members.data() + member_offsets[s + 1]);
        }
      });
}

DependencyGraph build_dependency_graph(const Instance& inst,
                                       const Metric& metric) {
  std::vector<TxnId> all(inst.num_transactions());
  for (TxnId t = 0; t < all.size(); ++t) all[t] = t;
  return build_dependency_graph(inst, metric, all);
}

DependencyGraph build_rw_dependency_graph(const Instance& inst,
                                          const WriteSets& writes,
                                          const Metric& metric) {
  DTM_REQUIRE(writes.size() == inst.num_transactions(),
              "write sets size mismatch");
  // Writers of every object, ascending (filtered from the requester lists).
  std::vector<std::uint32_t> writer_offsets(inst.num_objects() + 1, 0);
  std::vector<TxnId> writers;
  for (ObjectId o = 0; o < inst.num_objects(); ++o) {
    for (TxnId t : inst.requesters(o)) {
      if (is_write(writes, t, o)) writers.push_back(t);
    }
    writer_offsets[o + 1] = static_cast<std::uint32_t>(writers.size());
  }
  std::vector<TxnId> all(inst.num_transactions());
  for (TxnId t = 0; t < all.size(); ++t) all[t] = t;
  // Local index == global TxnId here (all transactions, ascending): t
  // conflicts on o with every requester when it writes o, else with o's
  // writers only.
  return build_rows(
      inst, metric, std::move(all),
      [&](TxnId t, std::vector<std::span<const TxnId>>& lists) {
        lists.clear();
        for (ObjectId o : inst.txn(t).objects) {
          if (is_write(writes, t, o)) {
            lists.emplace_back(inst.requesters(o));
          } else {
            lists.emplace_back(writers.data() + writer_offsets[o],
                               writers.data() + writer_offsets[o + 1]);
          }
        }
      });
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
