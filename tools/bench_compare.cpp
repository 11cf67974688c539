// bench_compare — diff two BENCH_*.json artifacts and flag regressions.
//
//   bench_compare BASELINE.json CANDIDATE.json [--threshold 25]
//                 [--no-timers]
//
// Three layers of comparison:
//  - series rows (the paper-style result tables) are seeded and
//    deterministic, so they must match CELL-FOR-CELL; any difference is a
//    regression regardless of threshold — it means the candidate computes
//    different answers, not just at a different speed;
//  - counters (counted work: queries, probes, legs moved) and phase-timer
//    means/totals diff by percentage: growth beyond --threshold percent is
//    a regression. Counters are deterministic for seeded benches; timers
//    are wall-clock and need a generous threshold. --no-timers drops the
//    timer layer entirely — use it when baseline and candidate come from
//    different machines or runs too short to time stably (CI gates on a
//    committed baseline compare series + counters only).
//  - environment-describing counters (pool.workers), the peak-RSS block,
//    and per-phase timer percentiles (p50/p95/max) are reported as "info"
//    but never flagged — they describe the machine and allocator, or are
//    shape diagnostics too noisy to gate on.
// Every block is read by kind: a non-array `series` or `rows`, a
// non-object `counters`/`timers`/`rss`, or a non-number value is a
// malformed artifact, not an empty one.
// Exits 1 if any regression was found or the baseline has series or
// counters but nothing was compared, 2 on a malformed artifact or bad
// usage, 0 otherwise.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "util/args.hpp"
#include "util/error.hpp"
#include "util/json_reader.hpp"
#include "util/table.hpp"

namespace {

using dtm::Error;
using dtm::JsonValue;

// ------------------------------------------------------------- comparison

/// Flat metric map: counters by name, timers by mean/total plus the
/// informational p50/p95/max percentiles (timers omitted when
/// `with_timers` is false). Every block is read through the typed
/// accessors, timers included, so a wrong-kind block or value throws
/// dtm::Error instead of comparing as 0.
std::map<std::string, double> metrics_of(const JsonValue& doc,
                                         bool with_timers) {
  std::map<std::string, double> out;
  if (const JsonValue* counters = doc.find("counters")) {
    for (const auto& [name, v] : counters->as_object()) {
      out["counter/" + name] = v.as_number();
    }
  }
  // Peak-RSS block (absent from older artifacts): informational — memory
  // use depends on machine and allocator, so changes are shown, never
  // flagged.
  if (const JsonValue* rss = doc.find("rss")) {
    for (const auto& [name, v] : rss->as_object()) {
      out["rss/" + name] = v.as_number();
    }
  }
  // Metrics block (absent unless the bench enabled the MetricsRegistry):
  // informational like rss/ — the gauge/histogram snapshot is a health
  // readout, and gating happens through stream_report --validate instead.
  if (const JsonValue* metrics = doc.find("metrics")) {
    metrics->as_object();
    if (const JsonValue* gauges = metrics->find("gauges")) {
      for (const auto& [name, v] : gauges->as_object()) {
        out["metrics/gauge/" + name] = v.as_number();
      }
    }
    if (const JsonValue* hists = metrics->find("histograms")) {
      for (const auto& [name, h] : hists->as_object()) {
        for (const auto& [field, v] : h.as_object()) {
          out["metrics/hist/" + name + "/" + field] = v.as_number();
        }
      }
    }
  }
  if (const JsonValue* timers = doc.find("timers")) {
    for (const auto& [name, t] : timers->as_object()) {
      for (const auto& [field, v] : t.as_object()) {
        const double x = v.as_number();
        if (!with_timers) continue;
        if (field == "mean_ns" || field == "total_ns" || field == "p50_ns" ||
            field == "p95_ns" || field == "max_ns") {
          out["timer_" + field + "/" + name] = x;
        }
      }
    }
  }
  return out;
}

/// Environment-describing metrics: reported on change, never a regression.
/// Timer percentiles ride along for visibility but single-sample phases
/// make p50 == max, so gating on them would just re-gate the mean.
bool informational(const std::string& name) {
  return name == "counter/pool.workers" || name.rfind("rss/", 0) == 0 ||
         name.rfind("metrics/", 0) == 0 ||
         name.rfind("timer_p50_ns/", 0) == 0 ||
         name.rfind("timer_p95_ns/", 0) == 0 ||
         name.rfind("timer_max_ns/", 0) == 0;
}

/// Series tables by name -> rows. Every table must be an object with a
/// string name and an array of rows, each row an array of string cells.
std::map<std::string, const std::vector<JsonValue>*> tables_of(
    const JsonValue& doc) {
  std::map<std::string, const std::vector<JsonValue>*> out;
  const JsonValue* series = doc.find("series");
  if (series == nullptr) return out;
  for (const JsonValue& t : series->as_array()) {
    t.as_object();
    const JsonValue* name = t.find("name");
    const JsonValue* rows = t.find("rows");
    DTM_REQUIRE(name != nullptr && rows != nullptr,
                "series table without a name or rows");
    for (const JsonValue& row : rows->as_array()) {
      for (const JsonValue& cell : row.as_array()) cell.as_string();
    }
    out[name->as_string()] = &rows->arr;
  }
  return out;
}

/// Reads and kind-checks one artifact; a malformed one throws dtm::Error
/// naming the file.
JsonValue load_artifact(const std::string& path) {
  JsonValue doc = dtm::load_json_file(path);
  const JsonValue* schema = doc.find("schema");
  DTM_REQUIRE(schema != nullptr && schema->str == "dtm-bench-v1",
              path << ": not a dtm-bench-v1 artifact");
  try {
    tables_of(doc);
    metrics_of(doc, true);
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
  return doc;
}

/// Exact cell-for-cell diff of the `series` tables. Returns the number of
/// mismatching tables, printing one line per mismatch, and adds the number
/// of tables present on both sides to `compared`. Series rows come from
/// seeded deterministic runs, so ANY difference means the candidate
/// produces different results (schedules, bounds, ratios) — a correctness
/// regression no threshold can excuse.
int diff_series(const JsonValue& base, const JsonValue& cand,
                std::size_t& compared) {
  auto row_text = [](const JsonValue& row) {
    std::string out = "[";
    for (std::size_t i = 0; i < row.arr.size(); ++i) {
      out += (i ? ", " : "") + row.arr[i].str;
    }
    return out + "]";
  };
  const auto base_t = tables_of(base);
  const auto cand_t = tables_of(cand);
  int mismatches = 0;
  for (const auto& [name, brows] : base_t) {
    const auto it = cand_t.find(name);
    if (it == cand_t.end()) {
      std::cout << "series '" << name << "': missing from candidate\n";
      ++mismatches;
      continue;
    }
    ++compared;
    const std::vector<JsonValue>& crows = *it->second;
    if (brows->size() != crows.size()) {
      std::cout << "series '" << name << "': " << brows->size()
                << " baseline rows vs " << crows.size() << " candidate rows\n";
      ++mismatches;
      continue;
    }
    for (std::size_t i = 0; i < crows.size(); ++i) {
      const JsonValue& br = (*brows)[i];
      const JsonValue& cr = crows[i];
      const bool same =
          br.arr.size() == cr.arr.size() &&
          std::equal(br.arr.begin(), br.arr.end(), cr.arr.begin(),
                     [](const JsonValue& a, const JsonValue& b) {
                       return a.str == b.str;
                     });
      if (!same) {
        std::cout << "series '" << name << "' row " << i
                  << " differs:\n  baseline:  " << row_text(br)
                  << "\n  candidate: " << row_text(cr) << "\n";
        ++mismatches;
        break;  // one row per table is enough to flag it
      }
    }
  }
  for (const auto& [name, ct] : cand_t) {
    (void)ct;
    if (!base_t.count(name)) {
      std::cout << "series '" << name << "': added in candidate\n";
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const dtm::ArgParser args(argc, argv);
    const double threshold_pct =
        static_cast<double>(args.get_int("threshold", 25));
    const bool with_timers = !args.has("no-timers");
    const auto files = args.positional();
    if (args.has("help") || files.size() != 2) {
      std::cerr << "usage: bench_compare BASELINE.json CANDIDATE.json "
                   "[--threshold PCT] [--no-timers]\n";
      return files.size() == 2 ? 0 : 2;
    }
    const JsonValue base = load_artifact(files[0]);
    const JsonValue cand = load_artifact(files[1]);
    const auto base_m = metrics_of(base, with_timers);
    const auto cand_m = metrics_of(cand, with_timers);

    std::size_t compared = 0;
    int regressions = diff_series(base, cand, compared);

    dtm::Table table({"metric", "baseline", "candidate", "change %", "verdict"});
    for (const auto& [name, old_v] : base_m) {
      const auto it = cand_m.find(name);
      if (it == cand_m.end()) {
        table.add_row(name, old_v, "-", "-", "removed");
        continue;
      }
      const double new_v = it->second;
      ++compared;
      if (informational(name)) {
        if (new_v != old_v) table.add_row(name, old_v, new_v, "-", "info");
        continue;
      }
      if (old_v <= 0) {
        table.add_row(name, old_v, new_v, "-", new_v > 0 ? "new work" : "ok");
        continue;
      }
      const double change_pct = (new_v - old_v) / old_v * 100.0;
      const bool regressed = change_pct > threshold_pct;
      if (regressed) ++regressions;
      if (regressed || change_pct < -threshold_pct) {
        table.add_row(name, old_v, new_v, change_pct,
                      regressed ? "REGRESSION" : "improved");
      }
    }
    for (const auto& [name, new_v] : cand_m) {
      if (!base_m.count(name)) table.add_row(name, "-", new_v, "-", "added");
    }
    if (table.rows() == 0) {
      std::cout << "no changes beyond " << threshold_pct << "% threshold ("
                << base_m.size() << " metrics compared)\n";
    } else {
      table.print(std::cout);
    }
    // A gate that compared nothing proves nothing: a baseline with series
    // or counters must share at least one of them with the candidate.
    const bool base_has_data =
        !tables_of(base).empty() ||
        std::any_of(base_m.begin(), base_m.end(), [](const auto& m) {
          return m.first.rfind("counter/", 0) == 0;
        });
    if (base_has_data && compared == 0) {
      std::cout << "nothing compared: the candidate shares no series or "
                   "metric with the baseline\n";
      return 1;
    }
    if (regressions > 0) {
      std::cout << regressions << " regression(s) above " << threshold_pct
                << "%\n";
      return 1;
    }
    return 0;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
