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

/// The one H builder over the subset `txns` of `all` (ids == indices; only
/// homes are read). `row_lists(t, lists)` replaces `lists` with the
/// ascending local-index lists whose union is the row of transaction t.
/// Rows are staged as bare ids in an uninitialized array sized by the sum
/// of list sizes; `edges` is then reserved at the exact arc count (no
/// zero-fill) and filled with one batched distance query per row.
template <typename RowLists>
DependencyGraph build_rows(std::span<const Transaction> all,
                           const Metric& metric, std::vector<TxnId> txns,
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
  for (std::size_t i = 0; i < n; ++i) homes[i] = all[h.txns[i]].home;
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

DependencyGraph build_dependency_graph(std::span<const Transaction> txns,
                                       std::size_t num_objects,
                                       const Metric& metric,
                                       std::span<const TxnId> subset) {
  std::vector<TxnId> sorted(subset.begin(), subset.end());
  std::sort(sorted.begin(), sorted.end());
  DTM_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                  sorted.end(),
              "dependency graph: duplicate transaction in subset");
  DTM_REQUIRE(sorted.empty() || sorted.back() < txns.size(),
              "dependency graph: transaction T" << sorted.back()
                                                << " out of range");

  // In-subset members (local indices, ascending) of every object the
  // subset touches, packed by a counting pass over the subset's own object
  // lists; slot[o] is o's list, kInvalidTxn if untouched. Filling in
  // ascending local order keeps every list ascending.
  std::vector<TxnId> slot(num_objects, kInvalidTxn);
  std::vector<std::uint32_t> member_offsets(1, 0);
  for (TxnId t : sorted) {
    for (ObjectId o : txns[t].objects) {
      DTM_REQUIRE(o < num_objects,
                  "dependency graph: object " << o << " out of range");
      if (slot[o] == kInvalidTxn) {
        slot[o] = static_cast<TxnId>(member_offsets.size() - 1);
        member_offsets.push_back(0);
      }
      ++member_offsets[slot[o] + 1];
    }
  }
  for (std::size_t s = 1; s < member_offsets.size(); ++s) {
    member_offsets[s] += member_offsets[s - 1];
  }
  std::vector<TxnId> members(member_offsets.back());
  std::vector<std::uint32_t> cursor(member_offsets.begin(),
                                    member_offsets.end() - 1);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    for (ObjectId o : txns[sorted[i]].objects) {
      std::uint32_t& c = cursor[slot[o]];
      DTM_REQUIRE(c == member_offsets[slot[o]] || members[c - 1] != i,
                  "dependency graph: T" << sorted[i] << " requests object "
                                        << o << " twice");
      members[c++] = static_cast<TxnId>(i);
    }
  }

  return build_rows(
      txns, metric, std::move(sorted),
      [&](TxnId t, std::vector<std::span<const TxnId>>& lists) {
        lists.clear();
        for (ObjectId o : txns[t].objects) {
          const TxnId s = slot[o];
          lists.emplace_back(members.data() + member_offsets[s],
                             members.data() + member_offsets[s + 1]);
        }
      });
}

DependencyGraph build_dependency_graph(const Instance& inst,
                                       const Metric& metric,
                                       std::span<const TxnId> txns) {
  return build_dependency_graph(inst.transactions(), inst.num_objects(),
                                metric, txns);
}

DependencyGraph build_dependency_graph(const Instance& inst,
                                       const Metric& metric) {
  std::vector<TxnId> all(inst.num_transactions());
  for (TxnId t = 0; t < all.size(); ++t) all[t] = t;
  return build_dependency_graph(inst.transactions(), inst.num_objects(),
                                metric, all);
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
      inst.transactions(), metric, std::move(all),
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

}  // namespace dtm
