// Plain-text serialization for graphs, instances, and schedules.
//
// Lets users snapshot a workload (e.g. from the CLI), rerun it with a
// different scheduler, and diff results. The format is line-oriented and
// versioned:
//
//   dtm-graph v1        dtm-instance v1        dtm-schedule v1
//   nodes N             objects W              commits N
//   edge u v w          object O home V        commit T step S
//   ...                 txn home V objs O...   order O t1 t2 ...
//
// Readers validate aggressively and throw dtm::Error with a line number on
// malformed input. Numbers are unsigned decimals, ids are range-checked
// before narrowing, and object/commit/order records list their ids
// 0, 1, ... in the writer's order, so every table is sized by the records
// the file holds, never by a declared count alone.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "core/instance.hpp"
#include "core/schedule.hpp"

namespace dtm {

/// Largest `nodes N` read_graph accepts: 2^24 (16.7M) nodes, 16× the
/// largest graphs the experiments build (E21's 10⁶). The CSR offsets are
/// sized by N alone — isolated nodes are legal, so no record count bounds
/// it — and the cap turns a huge N into dtm::Error instead of bad_alloc.
inline constexpr std::uint64_t kMaxGraphNodes = std::uint64_t{1} << 24;

void write_graph(std::ostream& os, const Graph& g);
Graph read_graph(std::istream& is);

/// The instance references `g`; the caller keeps `g` alive.
void write_instance(std::ostream& os, const Instance& inst);
Instance read_instance(std::istream& is, const Graph& g);

void write_schedule(std::ostream& os, const Schedule& s);
Schedule read_schedule(std::istream& is);

}  // namespace dtm
