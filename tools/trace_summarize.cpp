// trace_summarize — analyze a dtm execution trace (Chrome trace-event
// JSON or deterministic JSONL, both as written by TraceRecorder).
//
//   trace_summarize FILE [--json] [--validate] [--top N]
//
// Default output: provenance, the realized-makespan critical path (the
// dependency chain of transfers and waits whose lengths sum to the
// makespan), per-link utilization, top-k queue waits, and top
// per-transaction slack — as ASCII tables. --json emits the same summary
// as one JSON document. --validate runs a structural schema check plus
// the critical-path consistency check (segment sum == makespan, no chain
// violations) and exits 1 when either fails — CI gates the smoke trace
// on it.
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/trace_analysis.hpp"
#include "util/args.hpp"
#include "util/error.hpp"
#include "util/json_reader.hpp"
#include "util/json_writer.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"

namespace {

using dtm::Error;
using dtm::JsonReader;
using dtm::JsonValue;
using dtm::TraceCat;
using dtm::TraceSpanRecord;

struct ParsedTrace {
  std::string schema;
  std::map<std::string, std::string> provenance;
  std::vector<TraceSpanRecord> events;
};

bool cat_from_string(const std::string& s, TraceCat* out) {
  if (s == "leg") *out = TraceCat::kLeg;
  else if (s == "txn") *out = TraceCat::kTxn;
  else if (s == "queue") *out = TraceCat::kQueue;
  else if (s == "fault") *out = TraceCat::kFault;
  else if (s == "phase") *out = TraceCat::kPhase;
  else if (s == "resched") *out = TraceCat::kResched;
  else return false;
  return true;
}

// Every arg value is an integer (TraceArg); anything else is malformed.
std::vector<dtm::TraceArg> args_of(const JsonValue& ev) {
  std::vector<dtm::TraceArg> out;
  if (const JsonValue* args = ev.find("args")) {
    for (const auto& [k, v] : args->as_object()) out.push_back({k, v.as_int()});
  }
  return out;
}

// Prefixes a dtm::Error thrown by `read` with the record it was reading.
template <class Read>
void in_record(const std::string& where, const Read& read) {
  try {
    read();
  } catch (const Error& e) {
    throw Error(where + ": " + e.what());
  }
}

void read_provenance(const JsonValue& prov, ParsedTrace& out) {
  for (const auto& [k, v] : prov.as_object()) out.provenance[k] = v.as_string();
}

ParsedTrace parse_chrome(const JsonValue& doc) {
  ParsedTrace out;
  if (const JsonValue* other = doc.find("otherData")) {
    if (const JsonValue* schema = other->find("schema")) {
      out.schema = schema->as_string();
    }
    if (const JsonValue* prov = other->find("provenance")) {
      read_provenance(*prov, out);
    }
  }
  const JsonValue* evs = doc.find("traceEvents");
  DTM_REQUIRE(evs != nullptr, "chrome trace: no traceEvents array");
  // pid/tid -> track name from the "M" thread_name metadata.
  using TrackKey = std::pair<std::int64_t, std::int64_t>;
  std::map<TrackKey, std::string> tracks;
  const std::vector<JsonValue>& events = evs->as_array();
  const auto where = [](std::size_t i) {
    return "chrome trace: traceEvents[" + std::to_string(i) + "]";
  };
  for (std::size_t i = 0; i < events.size(); ++i) {
    in_record(where(i), [&] {
      const JsonValue& ev = events[i];
      const JsonValue* ph = ev.find("ph");
      if (ph == nullptr || ph->as_string() != "M") return;
      const JsonValue* name = ev.find("name");
      if (name == nullptr || name->as_string() != "thread_name") return;
      const JsonValue* args = ev.find("args");
      const JsonValue* pid = ev.find("pid");
      const JsonValue* tid = ev.find("tid");
      if (args == nullptr || pid == nullptr || tid == nullptr) return;
      if (const JsonValue* track = args->find("name")) {
        tracks[{pid->as_int(), tid->as_int()}] = track->as_string();
      }
    });
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    in_record(where(i), [&] {
      const JsonValue& ev = events[i];
      const JsonValue* ph = ev.find("ph");
      if (ph == nullptr) return;
      const std::string& phase = ph->as_string();
      if (phase != "X" && phase != "i") return;
      const JsonValue* name = ev.find("name");
      const JsonValue* cat = ev.find("cat");
      const JsonValue* ts = ev.find("ts");
      const JsonValue* pid = ev.find("pid");
      const JsonValue* tid = ev.find("tid");
      DTM_REQUIRE(name != nullptr && cat != nullptr && ts != nullptr &&
                      pid != nullptr && tid != nullptr,
                  "event missing name/cat/ts/pid/tid");
      TraceSpanRecord rec;
      DTM_REQUIRE(cat_from_string(cat->as_string(), &rec.cat),
                  "unknown category '" << cat->as_string() << "'");
      const TrackKey key{pid->as_int(), tid->as_int()};
      rec.instant = phase == "i";
      rec.wall = key.first != 0;
      rec.begin = ts->as_number();
      rec.end = rec.begin;
      if (!rec.instant) {
        if (const JsonValue* dur = ev.find("dur")) {
          rec.end = rec.begin + dur->as_number();
        }
      }
      const auto tr = tracks.find(key);
      rec.track = tr != tracks.end() ? tr->second : "?";
      rec.name = name->as_string();
      rec.args = args_of(ev);
      out.events.push_back(std::move(rec));
    });
  }
  return out;
}

ParsedTrace parse_jsonl(const std::string& text) {
  ParsedTrace out;
  std::istringstream in(text);
  std::string line;
  bool first = true;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    in_record("jsonl trace: line " + std::to_string(lineno), [&] {
      const JsonValue v = JsonReader(line).parse();
      if (first) {
        first = false;
        const JsonValue* schema = v.find("schema");
        DTM_REQUIRE(schema != nullptr, "no schema");
        out.schema = schema->as_string();
        if (const JsonValue* prov = v.find("provenance")) {
          read_provenance(*prov, out);
        }
        return;
      }
      const JsonValue* cat = v.find("cat");
      const JsonValue* kind = v.find("kind");
      const JsonValue* track = v.find("track");
      const JsonValue* name = v.find("name");
      const JsonValue* begin = v.find("begin");
      const JsonValue* end = v.find("end");
      DTM_REQUIRE(cat != nullptr && kind != nullptr && track != nullptr &&
                      name != nullptr && begin != nullptr && end != nullptr,
                  "missing a required key");
      TraceSpanRecord rec;
      DTM_REQUIRE(cat_from_string(cat->as_string(), &rec.cat),
                  "unknown category '" << cat->as_string() << "'");
      rec.instant = kind->as_string() == "instant";
      rec.track = track->as_string();
      rec.name = name->as_string();
      rec.begin = begin->as_number();
      rec.end = end->as_number();
      rec.args = args_of(v);
      out.events.push_back(std::move(rec));
    });
  }
  DTM_REQUIRE(!first, "jsonl trace: empty file");
  return out;
}

ParsedTrace parse_trace_file(const std::string& path) {
  std::ifstream in(path);
  DTM_REQUIRE(in.good(), "cannot open " << path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  // The JSONL header line names its schema; anything else is parsed as one
  // Chrome trace-event document.
  const auto nl = text.find('\n');
  const std::string head = text.substr(0, nl);
  if (head.find("dtm-trace-jsonl-v1") != std::string::npos) {
    return parse_jsonl(text);
  }
  return parse_chrome(JsonReader(text).parse());
}

/// Structural schema check; appends findings to `issues`.
void validate_structure(const ParsedTrace& trace,
                        std::vector<std::string>& issues) {
  if (trace.schema != "dtm-trace-chrome-v1" &&
      trace.schema != "dtm-trace-jsonl-v1") {
    issues.push_back("unknown or missing schema marker: '" + trace.schema +
                     "'");
  }
  for (const char* key : {"git_sha", "build_type", "compiler"}) {
    const auto it = trace.provenance.find(key);
    if (it == trace.provenance.end() || it->second.empty()) {
      issues.push_back(std::string("provenance is missing '") + key + "'");
    }
  }
  if (trace.events.empty()) issues.push_back("trace contains no events");
  // A trace with instants but no duration spans has makespan 0, which
  // makes the tiling invariant pass vacuously — reject it outright.
  bool has_span = false;
  for (const TraceSpanRecord& e : trace.events) {
    if (!e.instant) {
      has_span = true;
      break;
    }
  }
  if (!trace.events.empty() && !has_span) {
    issues.push_back(
        "trace contains no duration spans (nothing executed); the "
        "critical-path check would pass vacuously");
  }
  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const TraceSpanRecord& e = trace.events[i];
    if (e.end < e.begin) {
      issues.push_back("event " + std::to_string(i) + " ('" + e.name +
                       "') ends before it begins");
    }
    if (e.name.empty() || e.track.empty()) {
      issues.push_back("event " + std::to_string(i) +
                       " has an empty name or track");
    }
  }
}

const char* kind_name(dtm::CriticalSegment::Kind k) {
  return k == dtm::CriticalSegment::Kind::kTransfer ? "transfer" : "wait";
}

void print_tables(const ParsedTrace& trace, const dtm::TraceSummary& sum) {
  std::cout << "provenance:";
  for (const auto& [k, v] : trace.provenance) {
    std::cout << ' ' << k << '=' << v;
  }
  std::cout << "\n\nmakespan " << sum.makespan << ", critical-path total "
            << sum.critical_total << " over " << sum.critical_path.size()
            << " segment(s)";
  if (sum.reschedules > 0) {
    std::cout << ", " << sum.reschedules << " reschedule(s)";
  }
  std::cout << (sum.consistent() ? "" : "  [INCONSISTENT]") << "\n\n";

  dtm::Table cp({"segment", "begin", "end", "len", "txn", "object", "leg",
                 "from", "to"});
  for (const dtm::CriticalSegment& s : sum.critical_path) {
    if (s.kind == dtm::CriticalSegment::Kind::kTransfer) {
      cp.add_row(kind_name(s.kind), s.begin, s.end, s.length(), s.txn,
                 s.object, s.leg, s.from, s.to);
    } else {
      cp.add_row(kind_name(s.kind), s.begin, s.end, s.length(), s.txn, "-",
                 "-", "-", "-");
    }
  }
  std::cout << "critical path:\n";
  cp.print(std::cout);

  if (!sum.links.empty()) {
    dtm::Table lt({"link", "busy", "legs", "busy/makespan"});
    for (const dtm::LinkUtilization& l : sum.links) {
      const double util =
          sum.makespan > 0
              ? static_cast<double>(l.busy) / static_cast<double>(sum.makespan)
              : 0.0;
      lt.add_row(l.track, l.busy, l.legs, util);
    }
    std::cout << "\nlink utilization:\n";
    lt.print(std::cout);
  }

  if (!sum.queue_waits.empty()) {
    dtm::Table qt({"link", "object", "leg", "queued", "admitted", "wait"});
    for (const dtm::QueueWaitEntry& q : sum.queue_waits) {
      qt.add_row(q.track, q.object, q.leg, q.begin, q.end, q.length());
    }
    std::cout << "\ntop queue waits:\n";
    qt.print(std::cout);
  }

  if (sum.latency.count > 0) {
    dtm::Table la({"txns", "mean", "p50", "p95", "p99", "min", "max"});
    la.add_row(sum.latency.count, sum.latency.mean, sum.latency.p50,
               sum.latency.p95, sum.latency.p99, sum.latency.min,
               sum.latency.max);
    std::cout << "\narrival->commit latency:\n";
    la.print(std::cout);
  }

  if (!sum.slack.empty()) {
    dtm::Table st({"txn", "assembled", "planned", "realized", "slack"});
    std::size_t shown = 0;
    for (const dtm::TxnSlack& s : sum.slack) {
      if (shown++ >= 10) break;
      st.add_row(s.txn, s.assembled, s.planned, s.realized, s.slack);
    }
    std::cout << "\ntop transaction slack:\n";
    st.print(std::cout);
  }

  if (!sum.problems.empty()) {
    std::cout << "\nproblems:\n";
    for (const std::string& p : sum.problems) std::cout << "  " << p << '\n';
  }
}

std::string to_json(const ParsedTrace& trace, const dtm::TraceSummary& sum) {
  dtm::JsonWriter w;
  w.begin_object();
  w.key("schema").value("dtm-trace-summary-v1");
  w.key("provenance").begin_object();
  for (const auto& [k, v] : trace.provenance) w.key(k).value(v);
  w.end_object();
  w.key("makespan").value(static_cast<std::int64_t>(sum.makespan));
  w.key("critical_total").value(static_cast<std::int64_t>(sum.critical_total));
  w.key("consistent").value(sum.consistent());
  w.key("reschedules").value(static_cast<std::uint64_t>(sum.reschedules));
  w.key("critical_path").begin_array();
  for (const dtm::CriticalSegment& s : sum.critical_path) {
    w.begin_object()
        .key("kind")
        .value(kind_name(s.kind))
        .key("begin")
        .value(static_cast<std::int64_t>(s.begin))
        .key("end")
        .value(static_cast<std::int64_t>(s.end))
        .key("txn")
        .value(s.txn);
    if (s.kind == dtm::CriticalSegment::Kind::kTransfer) {
      w.key("object").value(s.object).key("leg").value(s.leg);
      w.key("from").value(s.from).key("to").value(s.to);
    }
    w.end_object();
  }
  w.end_array();
  w.key("links").begin_array();
  for (const dtm::LinkUtilization& l : sum.links) {
    w.begin_object()
        .key("link")
        .value(l.track)
        .key("busy")
        .value(static_cast<std::int64_t>(l.busy))
        .key("legs")
        .value(static_cast<std::uint64_t>(l.legs))
        .end_object();
  }
  w.end_array();
  w.key("queue_waits").begin_array();
  for (const dtm::QueueWaitEntry& q : sum.queue_waits) {
    w.begin_object()
        .key("link")
        .value(q.track)
        .key("object")
        .value(q.object)
        .key("leg")
        .value(q.leg)
        .key("begin")
        .value(static_cast<std::int64_t>(q.begin))
        .key("end")
        .value(static_cast<std::int64_t>(q.end))
        .end_object();
  }
  w.end_array();
  w.key("latency").begin_object();
  w.key("count").value(static_cast<std::uint64_t>(sum.latency.count));
  w.key("sum").value(static_cast<std::int64_t>(sum.latency.sum));
  w.key("min").value(static_cast<std::int64_t>(sum.latency.min));
  w.key("max").value(static_cast<std::int64_t>(sum.latency.max));
  w.key("mean").value(sum.latency.mean);
  w.key("p50").value(sum.latency.p50);
  w.key("p95").value(sum.latency.p95);
  w.key("p99").value(sum.latency.p99);
  w.end_object();
  w.key("slack").begin_array();
  for (const dtm::TxnSlack& s : sum.slack) {
    w.begin_object()
        .key("txn")
        .value(s.txn)
        .key("assembled")
        .value(static_cast<std::int64_t>(s.assembled))
        .key("planned")
        .value(static_cast<std::int64_t>(s.planned))
        .key("realized")
        .value(static_cast<std::int64_t>(s.realized))
        .key("slack")
        .value(static_cast<std::int64_t>(s.slack))
        .end_object();
  }
  w.end_array();
  w.key("problems").begin_array();
  for (const std::string& p : sum.problems) w.value(p);
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const dtm::ArgParser args(argc, argv);
    const bool json = args.has("json");
    const bool validate = args.has("validate");
    const auto top_k = static_cast<std::size_t>(args.get_int("top", 10));
    const auto files = args.positional();
    if (args.has("help") || files.size() != 1) {
      std::cerr << "usage: trace_summarize FILE [--json] [--validate] "
                   "[--top N]\n";
      return files.size() == 1 ? 0 : 2;
    }
    const ParsedTrace trace = parse_trace_file(files[0]);
    const dtm::TraceSummary sum = dtm::summarize_trace(trace.events, top_k);

    if (validate) {
      std::vector<std::string> issues;
      validate_structure(trace, issues);
      for (const std::string& p : sum.problems) {
        issues.push_back("critical path: " + p);
      }
      if (sum.critical_total != sum.makespan) {
        std::ostringstream os;
        os << "critical-path total " << sum.critical_total
           << " != makespan " << sum.makespan;
        issues.push_back(os.str());
      }
      if (!issues.empty()) {
        std::cout << files[0] << ": INVALID\n";
        for (const std::string& i : issues) std::cout << "  " << i << '\n';
        return 1;
      }
      std::cout << files[0] << ": ok (" << trace.events.size()
                << " events, makespan " << sum.makespan << ")\n";
      return 0;
    }

    if (json) {
      std::cout << to_json(trace, sum) << '\n';
    } else {
      print_tables(trace, sum);
    }
    return sum.consistent() ? 0 : 1;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }
}
