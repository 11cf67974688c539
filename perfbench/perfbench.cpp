// perfbench — the repository's end-to-end benchmark: three workloads that
// drive the batch pipeline (build graph -> generate -> schedule -> validate
// -> simulate) and the streaming runtime (ingest -> admit -> extract view
// -> color -> place -> retire) through their public entry points only.
//
//   perfbench --workload batch_cluster|stream_seq|stream_burst
//             --seed N --seconds S --trace 0|1 [--short]
//
// One run:
//   1. set-up, repeated from the same seed (substrate, metric and every
//      generated input; nothing random happens after this);
//   2. one untimed warm-up pass, whose output is checked in full
//      (validate + simulate, or validate_online);
//   3. timed passes over the same inputs, each on a fresh scheduler or
//      runtime, rotated over the CPUs, until `--seconds` have elapsed;
//      every pass must reproduce the warm-up's schedule hash and
//      step-domain guards bit for bit;
//   4. with --trace 1, half the time goes to a second block of passes with
//      the TelemetryRegistry enabled and benchmark-side spans recorded
//      around every timed call: the per-layer metrics and the tracing
//      overhead come from comparing the two blocks. stream_burst gives half
//      of that to its shard probe, a replay at 2 shards.
// --short shrinks every input so the whole run takes about a second.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. The line before it carries the machine fingerprint and what
// every figure rests on (sample counts, per-pass times, span totals).
// RATIONALE.md in this directory explains the workloads and which layer
// metric should move which end-to-end metric.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/generators.hpp"
#include "core/online.hpp"
#include "core/validate.hpp"
#include "graph/analytic_metric.hpp"
#include "graph/metric.hpp"
#include "graph/partition.hpp"
#include "graph/topologies/cluster.hpp"
#include "sched/cluster.hpp"
#include "sim/runtime.hpp"
#include "sim/simulator.hpp"
#include "util/json_writer.hpp"
#include "util/provenance.hpp"
#include "util/rng.hpp"
#include "util/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace dtm;
using Clock = std::chrono::steady_clock;

// Set-ups and timed passes run in rounds, one per CPU (see CpuRotation).
// Set-up: at least one round, then more while under kSetupSeconds, up to
// kMaxSetupRounds. Timed passes: at least kMinPassRounds, until the block's
// time is up.
constexpr std::size_t kMaxSetupRounds = 10;
constexpr double kSetupSeconds = 1.0;
constexpr std::size_t kMinPassRounds = 2;
constexpr std::size_t kMaxRotationCpus = 8;  // bounds a round on big hosts
constexpr std::size_t kTail = 10;  // samples required beyond a percentile

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile `q` of `v`. When fewer than kTail samples would
/// lie beyond that rank, the rank is lowered until kTail do (but never
/// below the median), so a tail figure always rests on kTail samples.
/// `effective_q` receives the percentile actually reported.
template <typename T>
double tail_percentile(std::vector<T> v, double q,
                       double* effective_q = nullptr) {
  if (v.empty()) {
    if (effective_q) *effective_q = q;
    return 0;
  }
  const std::size_t n = v.size();
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  std::size_t idx = std::min(rank == 0 ? 0 : rank - 1, n - 1);
  if (n - 1 - idx < kTail) {
    idx = std::max(n > kTail ? n - 1 - kTail : 0, (n - 1) / 2);
  }
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  if (effective_q) {
    *effective_q = static_cast<double>(idx + 1) / static_cast<double>(n);
  }
  return static_cast<double>(v[idx]);
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}
constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

std::uint64_t hash_commits(const std::vector<Time>& commit) {
  std::uint64_t h = fnv(kFnvBasis, commit.size());
  for (Time t : commit) h = fnv(h, static_cast<std::uint64_t>(t));
  return h;
}

/// Process CPU seconds (all threads); set against wall time in the detail
/// line, it tells waiting for a CPU apart from running slower on one.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Rotates the calling thread over the CPUs the process may use (at most
/// kMaxRotationCpus of them), one CPU per repetition. On a shared host each vCPU runs at its own speed,
/// depending on what else the host runs beside it, and the speeds drift
/// over tens of seconds; a thread left on one vCPU carries that vCPU's luck
/// through a whole run. Visiting every CPU equally often and averaging the
/// per-CPU medians (balanced_median) measures the machine instead. Pool
/// workers are not pinned. The destructor restores the original mask.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof(all_), &all_) == 0) {
      for (int c = 0; c < CPU_SETSIZE && cpus_.size() < kMaxRotationCpus;
           ++c) {
        if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
      }
    }
    if (cpus_.empty()) cpus_.push_back(-1);  // no mask: stay unpinned
  }
  ~CpuRotation() {
    if (cpus_.front() >= 0) sched_setaffinity(0, sizeof(all_), &all_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  std::size_t size() const { return cpus_.size(); }

  /// Pins to the CPU of repetition `i` (best effort).
  void pin(std::size_t i) const {
    const int cpu = cpus_[i % cpus_.size()];
    if (cpu < 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t all_{};
  std::vector<int> cpus_;
};

/// Mean over `cpus` CPUs of the median of the values measured on each,
/// where v[i] was measured in repetition i of a CpuRotation (whole rounds).
double balanced_median(const std::vector<double>& v, std::size_t cpus) {
  double sum = 0;
  for (std::size_t c = 0; c < cpus; ++c) {
    std::vector<double> on_c;
    for (std::size_t i = c; i < v.size(); i += cpus) on_c.push_back(v[i]);
    sum += median(std::move(on_c));
  }
  return sum / static_cast<double>(cpus);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// --- benchmark-side spans -----------------------------------------------

struct SpanTotals {
  std::size_t count = 0;
  double inclusive_s = 0;
  double self_s = 0;  // inclusive minus the time covered by direct children
};

/// In-memory span log: every timed public call of a traced pass becomes
/// one span (name, start, end, parent). Aggregated per name, then cleared.
class SpanLog {
 public:
  int add(const char* name, Clock::time_point start, Clock::time_point end,
          int parent) {
    spans_.push_back({name, start, end, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Opens a span whose end is set by close().
  int open(const char* name, int parent) {
    return add(name, Clock::now(), Clock::time_point{}, parent);
  }
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
  }

  /// Adds this log's per-name totals into `out` and empties the log.
  void drain_into(std::map<std::string, SpanTotals>& out) {
    std::vector<double> child_s(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_s[static_cast<std::size_t>(s.parent)] +=
            seconds_between(s.start, s.end);
      }
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      SpanTotals& t = out[s.name];
      const double d = seconds_between(s.start, s.end);
      ++t.count;
      t.inclusive_s += d;
      t.self_s += d - child_s[i];
    }
    spans_.clear();
  }

 private:
  struct Span {
    const char* name;
    Clock::time_point start, end;
    int parent;  // index into spans_, -1 for a root
  };
  std::vector<Span> spans_;
};

/// Runs `fn` and returns its wall seconds; with a log, also records it as
/// a child span of `parent`.
template <typename Fn>
double timed_call(SpanLog* log, const char* name, int parent, const Fn& fn) {
  const auto a = Clock::now();
  fn();
  const auto b = Clock::now();
  if (log) log->add(name, a, b, parent);
  return seconds_between(a, b);
}

// --- workloads ----------------------------------------------------------

/// What one pass produced. Step-domain fields must repeat exactly across
/// passes; wall-clock fields are the samples the metrics summarize.
struct PassResult {
  double wall_s = 0;                // the whole timed pass
  double cpu_s = 0;                 // process CPU time over the pass
  std::vector<double> decide_us;    // one per scheduling decision
  std::uint64_t schedule_hash = 0;  // commit vector + step guards
  Time makespan = 0;
  /// commit - arrival per transaction (full-check passes only; the other
  /// passes are held to it through schedule_hash)
  std::vector<Time> latency;
  std::map<std::string, double> layer;  // per-layer figures of this pass
  std::string error;                    // first failed check, or empty
};

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  /// Builds substrate, metric and inputs from `seed`, recording
  /// graph.build / graph.metric / core.generate spans under `parent`.
  virtual void setup(std::uint64_t seed, SpanLog& log, int parent) = 0;
  /// Hash of the generated inputs (identical set-ups must agree).
  virtual std::uint64_t input_hash() const = 0;
  /// One pass on a fresh scheduler/runtime; with a log, the pass is
  /// traced. `full_check` adds the checks too slow for every pass.
  virtual PassResult pass(SpanLog* log, bool full_check) = 0;
  virtual std::size_t txns() const = 0;
  virtual std::string params() const = 0;
  /// Switches later passes to (or back from) the workload's shard probe;
  /// false when it has none.
  virtual bool use_shard_probe(bool /*on*/) { return false; }
};

struct BatchParams {
  std::size_t alpha, beta;  // clusters, nodes per cluster
  std::size_t objects;      // w
  double txn_density;       // share of nodes hosting a transaction
};

/// batch_cluster: ClusterScheduler (greedy approach) -> validate ->
/// simulate on an α×β cluster graph (bridge weight β) with uniform k=2
/// transactions, distances from the closed-form AnalyticMetric.
class BatchCluster final : public Workload {
 public:
  explicit BatchCluster(BatchParams p) : p_(p) {}

  void setup(std::uint64_t seed, SpanLog& log, int parent) override {
    inst_.reset();
    metric_.reset();
    topo_.reset();  // free the previous set-up before building the next
    timed_call(&log, "graph.build", parent, [&] {
      topo_ = std::make_unique<ClusterGraph>(p_.alpha, p_.beta,
                                             static_cast<Weight>(p_.beta));
    });
    timed_call(&log, "graph.metric", parent,
               [&] { metric_ = make_analytic_metric(*topo_); });
    DTM_REQUIRE(metric_ != nullptr, "cluster graph has no analytic oracle");
    timed_call(&log, "core.generate", parent, [&] {
      Rng rng(seed);
      inst_ = std::make_unique<Instance>(
          generate_uniform(topo_->graph,
                           {.num_objects = p_.objects,
                            .objects_per_txn = 2,
                            .txn_density = p_.txn_density},
                           rng));
    });
  }

  std::uint64_t input_hash() const override {
    std::uint64_t h = fnv(kFnvBasis, topo_->graph.num_edges());
    for (const Transaction& t : inst_->transactions()) {
      h = fnv(h, t.home);
      for (ObjectId o : t.objects) h = fnv(h, o);
    }
    for (ObjectId o = 0; o < inst_->num_objects(); ++o) {
      h = fnv(h, inst_->object_home(o));
    }
    return h;
  }

  PassResult pass(SpanLog* log, bool full_check) override {
    PassResult r;
    ClusterScheduler sched(*topo_, {.approach = ClusterApproach::kGreedy});
    Schedule s;
    ValidationResult vr;
    SimResult sim;
    const int root = log ? log->open("pass", -1) : -1;
    const auto t0 = Clock::now();
    const double schedule_s = timed_call(
        log, "sched.schedule", root, [&] { s = sched.run(*inst_, *metric_); });
    const double validate_s = timed_call(
        log, "core.validate", root, [&] { vr = validate(*inst_, *metric_, s); });
    const double simulate_s = timed_call(
        log, "sim.simulate", root, [&] { sim = simulate(*inst_, *metric_, s); });
    r.wall_s = seconds_between(t0, Clock::now());
    if (log) log->close(root);

    r.decide_us.push_back(schedule_s * 1e6);
    r.layer["sched.schedule_s"] = schedule_s;
    r.layer["core.validate_s"] = validate_s;
    r.layer["sim.simulate_s"] = simulate_s;
    r.makespan = s.makespan();
    if (full_check) r.latency = s.commit_time;  // batch arrival = 0
    r.schedule_hash = fnv(hash_commits(s.commit_time),
                          static_cast<std::uint64_t>(sim.realized_makespan));
    if (!vr.ok) {
      r.error = "validate: " + vr.summary();
    } else if (!sim.ok) {
      r.error = "simulate: " + sim.summary();
    } else if (sim.realized_makespan != r.makespan) {
      r.error = "simulate realized makespan " +
                std::to_string(sim.realized_makespan) + " != planned " +
                std::to_string(r.makespan);
    }
    return r;
  }

  std::size_t txns() const override { return inst_->num_transactions(); }

  std::string params() const override {
    std::ostringstream os;
    os << "cluster " << p_.alpha << "x" << p_.beta << " gamma " << p_.beta
       << ", " << topo_->graph.num_edges() << " edges, "
       << inst_->num_transactions() << " txns, w=" << p_.objects
       << ", k=2, ClusterScheduler(greedy), AnalyticMetric";
    return os.str();
  }

 private:
  BatchParams p_;
  std::unique_ptr<ClusterGraph> topo_;
  std::unique_ptr<Metric> metric_;
  std::unique_ptr<Instance> inst_;
};

struct StreamParams {
  std::size_t alpha, beta;  // cluster substrate, bridge weight β
  ArrivalModel model;
  ArrivalStreamOptions arrivals;
  StreamingRuntimeOptions runtime;
  /// > 1: object homes follow shard_aligned_homes for this many shards, and
  /// traced runs replay the stream at this shard count (the shard probe).
  std::size_t probe_shards;
};

/// stream_seq / stream_burst: a pre-generated arrival stream pushed
/// through StreamingRuntime::ingest one transaction at a time, then
/// drain(). An ingest() call that flushed a non-empty window is a
/// scheduling decision; the others are plain ingests.
class Stream final : public Workload {
 public:
  explicit Stream(StreamParams p) : p_(std::move(p)) {}

  void setup(std::uint64_t seed, SpanLog& log, int parent) override {
    arrivals_.clear();
    metric_.reset();
    topo_.reset();
    timed_call(&log, "graph.build", parent, [&] {
      topo_ = std::make_unique<ClusterGraph>(p_.alpha, p_.beta,
                                             static_cast<Weight>(p_.beta));
    });
    timed_call(&log, "graph.metric", parent, [&] {
      metric_ = std::make_unique<DenseMetric>(topo_->graph);
    });
    timed_call(&log, "core.generate", parent, [&] {
      homes_ = p_.probe_shards > 1
                   ? shard_aligned_homes(
                         make_shard_map(topo_->graph, p_.probe_shards),
                         p_.arrivals.num_objects)
                   : StreamingRuntime::spread_homes(topo_->graph,
                                                    p_.arrivals.num_objects);
      auto src =
          make_arrival_source(p_.model, topo_->graph, p_.arrivals, seed);
      arrivals_.reserve(p_.arrivals.num_txns);
      ArrivingTxn t;
      while (src->next(t)) arrivals_.push_back(t);
    });
  }

  std::uint64_t input_hash() const override {
    std::uint64_t h = fnv(kFnvBasis, arrivals_.size());
    for (NodeId v : homes_) h = fnv(h, v);
    for (const ArrivingTxn& t : arrivals_) {
      h = fnv(fnv(h, static_cast<std::uint64_t>(t.arrival)), t.home);
      for (ObjectId o : t.objects) h = fnv(h, o);
    }
    return h;
  }

  PassResult pass(SpanLog* log, bool full_check) override {
    PassResult r;
    StreamingRuntimeOptions opts = p_.runtime;
    if (probing_) opts.shards = p_.probe_shards;
    StreamingRuntime rt(topo_->graph, *metric_, homes_, opts);
    r.decide_us.reserve(arrivals_.size() / 16 + 16);
    std::vector<double> ingest_us;  // kept only when traced
    if (log) ingest_us.reserve(arrivals_.size());
    const int root = log ? log->open("pass", -1) : -1;
    const auto t0 = Clock::now();
    for (const ArrivingTxn& t : arrivals_) {
      const std::size_t windows = rt.stats().windows;
      const auto a = Clock::now();
      rt.ingest(t);
      const auto b = Clock::now();
      const double us =
          std::chrono::duration<double, std::micro>(b - a).count();
      if (rt.stats().windows != windows) {
        r.decide_us.push_back(us);
        if (log) log->add("runtime.decide", a, b, root);
      } else if (log) {
        ingest_us.push_back(us);
        log->add("runtime.ingest", a, b, root);
      }
    }
    const double drain_s =
        timed_call(log, "runtime.drain", root, [&] { rt.drain(); });
    r.wall_s = seconds_between(t0, Clock::now());
    if (log) log->close(root);

    const StreamStats& st = rt.stats();
    const ShardLoadStats& sh = rt.shard_stats();
    const Schedule s = rt.schedule();
    r.makespan = st.makespan;
    if (full_check) {
      r.latency.resize(s.commit_time.size());
      for (std::size_t i = 0; i < s.commit_time.size(); ++i) {
        r.latency[i] = s.commit_time[i] - rt.arrivals()[i];
      }
    }
    std::uint64_t h = hash_commits(s.commit_time);
    for (std::size_t x : {st.committed, st.admitted, st.deferrals, st.windows,
                          st.peak_backlog}) {
      h = fnv(h, x);
    }
    r.schedule_hash = fnv(h, static_cast<std::uint64_t>(st.makespan));

    r.layer["sim.runtime.ingest_us.p50"] = tail_percentile(ingest_us, 0.5);
    r.layer["sim.runtime.ingest_us.p99"] = tail_percentile(ingest_us, 0.99);
    r.layer["sim.runtime.drain_s"] = drain_s;
    r.layer["sim.runtime.windows"] = static_cast<double>(st.windows);
    r.layer["sim.shard.local_txns"] = static_cast<double>(sh.local_txns);
    r.layer["sim.shard.cross_txns"] = static_cast<double>(sh.cross_txns);
    r.layer["sim.shard.fixup_txns"] = static_cast<double>(sh.fixup_txns);
    r.layer["sim.shard.peak_members"] =
        static_cast<double>(sh.peak_shard_members);
    r.layer["sim.admission.deferrals"] = static_cast<double>(st.deferrals);
    r.layer["sim.admission.raises"] =
        static_cast<double>(rt.admission().raises());
    r.layer["sim.admission.cuts"] = static_cast<double>(rt.admission().cuts());
    const double asked = static_cast<double>(st.admitted + st.deferrals);
    r.layer["sim.admission.admit_ratio"] =
        asked > 0 ? static_cast<double>(st.admitted) / asked : 0.0;

    if (st.committed != arrivals_.size() || st.admitted != arrivals_.size()) {
      r.error = "stream lost transactions: " + std::to_string(st.committed) +
                " committed, " + std::to_string(st.admitted) +
                " admitted of " + std::to_string(arrivals_.size());
    } else if (full_check) {
      const ValidationResult vr =
          validate_online(rt.materialize(), *metric_, rt.arrivals(), s);
      if (!vr.ok) r.error = "validate_online: " + vr.summary();
    }
    return r;
  }

  std::size_t txns() const override { return arrivals_.size(); }

  bool use_shard_probe(bool on) override {
    probing_ = on && p_.probe_shards > 1;
    return p_.probe_shards > 1;
  }

  std::string params() const override {
    std::ostringstream os;
    os << "cluster " << p_.alpha << "x" << p_.beta << ", "
       << (p_.model == ArrivalModel::kBursty ? "bursty" : "poisson")
       << " rate " << p_.arrivals.rate << " txn/step";
    if (p_.model == ArrivalModel::kBursty) {
      os << " burst " << p_.arrivals.burst_size;
    }
    const AdmissionConfig& ac = p_.runtime.admission;
    os << ", " << arrivals_.size() << " txns, w=" << p_.arrivals.num_objects
       << ", k=" << p_.arrivals.objects_per_txn << ", groups "
       << p_.arrivals.groups << ", window " << p_.runtime.window
       << ", shards " << p_.runtime.shards << ", admission "
       << admission_policy_name(ac.policy);
    if (ac.policy == AdmissionPolicy::kAimd) {
      os << " (floor " << ac.min_live << ", +" << ac.increase << ", x"
         << ac.decrease << ", low watermark " << ac.low_watermark << ")";
    }
    if (p_.probe_shards > 1) {
      os << ", homes aligned to " << p_.probe_shards
         << " shards, traced runs replay at " << p_.probe_shards << " shards";
    } else {
      os << ", spread homes";
    }
    return os.str();
  }

 private:
  StreamParams p_;
  std::unique_ptr<ClusterGraph> topo_;
  std::unique_ptr<Metric> metric_;
  std::vector<NodeId> homes_;
  std::vector<ArrivingTxn> arrivals_;
  bool probing_ = false;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        bool short_mode) {
  if (name == "batch_cluster") {
    // ~40 requesters per object: enough contention that the makespan (a
    // maximum over colors) barely moves from seed to seed.
    return std::make_unique<BatchCluster>(
        short_mode ? BatchParams{40, 25, 25, 0.2}
                   : BatchParams{1000, 125, 1250, 0.2});
  }
  if (name == "stream_seq") {
    // Below the sustainable rate: with admit-all, a rate above it grows
    // the live set without bound.
    StreamParams p{.alpha = 4,
                   .beta = 8,
                   .model = ArrivalModel::kPoisson,
                   .arrivals = {},
                   .runtime = {},
                   .probe_shards = 0};
    p.arrivals.num_txns = short_mode ? 4000 : 60000;
    p.arrivals.num_objects = 64;
    p.arrivals.objects_per_txn = 2;
    p.arrivals.rate = 0.45;
    p.runtime.window = 64;
    p.runtime.shards = 1;  // admission stays kFixed, 0 = admit everything
    return std::make_unique<Stream>(std::move(p));
  }
  if (name == "stream_burst") {
    // Bursts of 128 against an AIMD quota that starts at 8 and is cut back
    // once the backlog falls under one burst: every burst is deferred,
    // raised into and cut after, so each of ~1k bursts repeats the cycle.
    // Timed at 1 shard: at 2 shards each window waits on a pool worker,
    // and on a shared host a descheduled worker stalls it for milliseconds
    // (measured: txn_per_s -40% and decide p99 x10 while other tenants
    // were busy, so runs did not repeat). The shard layer is measured by
    // the traced 2-shard replay, which must reproduce the 1-shard schedule.
    StreamParams p{.alpha = 16,
                   .beta = 16,
                   .model = ArrivalModel::kBursty,
                   .arrivals = {},
                   .runtime = {},
                   .probe_shards = 2};
    p.arrivals.num_txns = short_mode ? 4000 : 120000;
    p.arrivals.num_objects = 256;
    p.arrivals.objects_per_txn = 2;
    p.arrivals.rate = 1.0;
    p.arrivals.burst_size = 128;
    p.arrivals.groups = 2;
    p.runtime.window = 64;
    p.runtime.shards = 1;
    p.runtime.admission.policy = AdmissionPolicy::kAimd;
    p.runtime.admission.min_live = 8;
    p.runtime.admission.increase = 8;
    p.runtime.admission.low_watermark = 128;
    return std::make_unique<Stream>(std::move(p));
  }
  return nullptr;
}

// --- run ------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool short_mode = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload batch_cluster|stream_seq|"
               "stream_burst --seed N --seconds S --trace 0|1 [--short]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--short") {
      a.short_mode = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else {
        usage("unknown flag " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

/// Set-up repeated from one seed; every repetition must build the same
/// inputs.
struct Setups {
  std::vector<double> total_s;  // one per repetition, in CPU rotation order
  std::map<std::string, std::vector<double>> layer_s;  // "graph.build_s", ...
  double median_s = 0;  // balanced_median of total_s
};

Setups run_setups(Workload& w, std::uint64_t seed, std::string* error) {
  Setups out;
  SpanLog log;
  CpuRotation cpus;
  std::uint64_t first_hash = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0;
       i % cpus.size() != 0 ||
       i < cpus.size() ||
       (i < kMaxSetupRounds * cpus.size() &&
        seconds_between(start, Clock::now()) < kSetupSeconds);
       ++i) {
    cpus.pin(i);
    const int root = log.open("setup", -1);
    w.setup(seed, log, root);
    log.close(root);
    std::map<std::string, SpanTotals> totals;
    log.drain_into(totals);
    for (const auto& [name, t] : totals) {
      if (name == "setup") {
        out.total_s.push_back(t.inclusive_s);
      } else {
        out.layer_s[name + "_s"].push_back(t.inclusive_s);
      }
    }
    const std::uint64_t h = w.input_hash();
    if (i == 0) first_hash = h;
    if (h != first_hash && error->empty()) {
      *error = "set-up is not a pure function of the seed";
    }
  }
  out.median_s = balanced_median(out.total_s, cpus.size());
  return out;
}

/// w.pass(), with an exception from the library turned into a failed check
/// (the run then reports every transaction as failed).
PassResult checked_pass(Workload& w, SpanLog* log, bool full_check) {
  try {
    return w.pass(log, full_check);
  } catch (const std::exception& e) {
    PassResult r;
    r.error = std::string("pass threw: ") + e.what();
    return r;
  }
}

/// A block of timed passes in CPU rotation order: whole rounds, at least
/// kMinPassRounds, until `seconds` elapse.
struct Block {
  std::vector<PassResult> passes;
  double txn_per_s = 0;  // transactions over the balanced median pass time
  std::size_t cpus = 1;  // CPUs rotated over
  std::map<std::string, SpanTotals> spans;  // traced blocks only
};

/// Per-layer figures the TelemetryRegistry holds after one traced pass.
void read_telemetry(PassResult& r) {
  const TelemetrySnapshot snap = TelemetryRegistry::global().snapshot();
  const auto timer_ms = [&](const char* name) {
    const auto it = snap.timers.find(name);
    return it == snap.timers.end() ? 0.0 : it->second.total_ns / 1e6;
  };
  const auto counter = [&](const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double window_ms = timer_ms("phase.sched.stream_window");
  const double coloring_ms = timer_ms("phase.coloring");
  const double extract_ms = timer_ms("phase.stream.shard_extract");
  r.layer["sched.coloring_ms"] = coloring_ms;
  r.layer["sim.runtime.shard_extract_ms"] = extract_ms;
  // Both child phases run inside stream_window on the calling thread.
  r.layer["sim.runtime.window_self_ms"] =
      window_ms > 0 ? window_ms - coloring_ms - extract_ms : 0.0;
  r.layer["dep.csr_edges"] = counter("dep.csr_edges");
  r.layer["greedy.color_probes"] = counter("greedy.color_probes");
  r.layer["sim.runtime.arc_pool_bytes"] = counter("stream.arc_pool_bytes");
}

Block run_block(Workload& w, double seconds, bool traced,
                const PassResult& ref, std::string* error) {
  Block b;
  SpanLog log;
  const CpuRotation cpus;
  std::vector<double> wall;
  TelemetryRegistry& reg = TelemetryRegistry::global();
  reg.set_enabled(traced);
  const auto start = Clock::now();
  while (b.passes.size() % cpus.size() != 0 ||
         b.passes.size() < kMinPassRounds * cpus.size() ||
         seconds_between(start, Clock::now()) < seconds) {
    cpus.pin(b.passes.size());
    if (traced) reg.reset();
    const double cpu0 = process_cpu_s();
    PassResult r = checked_pass(w, traced ? &log : nullptr, false);
    r.cpu_s = process_cpu_s() - cpu0;
    if (traced) {
      read_telemetry(r);
      std::map<std::string, SpanTotals> totals;
      log.drain_into(totals);
      r.layer["bench.pass_self_ms"] = totals["pass"].self_s * 1e3;
      for (const auto& [name, t] : totals) {
        SpanTotals& acc = b.spans[name];
        acc.count += t.count;
        acc.inclusive_s += t.inclusive_s;
        acc.self_s += t.self_s;
      }
    }
    if (error->empty()) {
      if (!r.error.empty()) {
        *error = r.error;
      } else if (r.schedule_hash != ref.schedule_hash ||
                 r.makespan != ref.makespan) {
        *error = "timed pass diverged from the warm-up schedule";
      }
    }
    wall.push_back(r.wall_s);
    b.passes.push_back(std::move(r));
  }
  reg.set_enabled(false);
  b.cpus = cpus.size();
  b.txn_per_s =
      static_cast<double>(w.txns()) / balanced_median(wall, b.cpus);
  return b;
}

double one_minute_load() {
  double load[1] = {0};
  return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

/// Percentile `q` of a block's decision times. When every pass has kTail
/// samples beyond its own q-th percentile, this is the balanced median over
/// passes of each pass's percentile, so a few passes slowed by a neighbour
/// move it no more than they move txn_per_s. Otherwise (batch: one decision
/// per pass) it is the tail percentile of the samples pooled over passes.
double decide_percentile(const Block& b, double q,
                         double* effective_q = nullptr) {
  const auto enough = [&](const PassResult& r) {
    const double n = static_cast<double>(r.decide_us.size());
    return n - std::ceil(q * n) >= static_cast<double>(kTail);
  };
  if (std::all_of(b.passes.begin(), b.passes.end(), enough)) {
    std::vector<double> per_pass;
    for (const PassResult& r : b.passes) {
      per_pass.push_back(tail_percentile(r.decide_us, q));
    }
    if (effective_q) *effective_q = q;
    return balanced_median(per_pass, b.cpus);
  }
  std::vector<double> pooled;
  for (const PassResult& r : b.passes) {
    pooled.insert(pooled.end(), r.decide_us.begin(), r.decide_us.end());
  }
  return tail_percentile(pooled, q, effective_q);
}

/// (name, (value, unit)) in print order.
using MetricList =
    std::vector<std::pair<std::string, std::pair<double, const char*>>>;

MetricList end_to_end_metrics(const Setups& setups, const Block& plain,
                              const PassResult& ref, double rss_mb) {
  MetricList m;
  const auto put = [&](const char* name, double v, const char* unit) {
    m.push_back({name, {v, unit}});
  };
  put("setup_s", setups.median_s, "s");
  put("txn_per_s", plain.txn_per_s, "1/s");
  put("decide_us.p50", decide_percentile(plain, 0.5), "us");
  put("decide_us.p99", decide_percentile(plain, 0.99), "us");
  put("peak_rss_mb", rss_mb, "MB");
  put("makespan_steps", static_cast<double>(ref.makespan), "steps");
  put("commit_latency_steps.p50", tail_percentile(ref.latency, 0.5), "steps");
  put("commit_latency_steps.p999", tail_percentile(ref.latency, 0.999),
      "steps");
  return m;
}

MetricList per_layer_metrics(const Setups& setups, const Block& plain,
                             const Block& traced, const Block* probe) {
  MetricList m;
  const auto put = [&](const char* name, double v, const char* unit) {
    m.push_back({name, {v, unit}});
  };
  const auto setup_layer = [&](const char* name) {
    const auto it = setups.layer_s.find(name);
    return it == setups.layer_s.end() ? 0.0 : median(it->second);
  };
  // Median over a block's passes of one per-pass figure; shard figures
  // come from the shard probe where there is one.
  const auto layer = [&](const char* name, const Block* from = nullptr) {
    std::vector<double> v;
    for (const PassResult& r : (from ? *from : traced).passes) {
      const auto it = r.layer.find(name);
      v.push_back(it == r.layer.end() ? 0.0 : it->second);
    }
    return median(v);
  };
  put("graph.build_s", setup_layer("graph.build_s"), "s");
  put("graph.metric_s", setup_layer("graph.metric_s"), "s");
  put("core.generate_s", setup_layer("core.generate_s"), "s");
  put("core.validate_s", layer("core.validate_s"), "s");
  put("sched.schedule_s", layer("sched.schedule_s"), "s");
  put("dep.csr_edges", layer("dep.csr_edges"), "count");
  put("greedy.color_probes", layer("greedy.color_probes"), "count");
  put("sim.simulate_s", layer("sim.simulate_s"), "s");
  put("sim.runtime.ingest_us.p50", layer("sim.runtime.ingest_us.p50"), "us");
  put("sim.runtime.ingest_us.p99", layer("sim.runtime.ingest_us.p99"), "us");
  put("sim.runtime.drain_s", layer("sim.runtime.drain_s"), "s");
  put("sim.runtime.window_self_ms", layer("sim.runtime.window_self_ms"), "ms");
  put("sched.coloring_ms", layer("sched.coloring_ms"), "ms");
  put("sim.runtime.shard_extract_ms",
      layer("sim.runtime.shard_extract_ms", probe), "ms");
  put("sim.runtime.windows", layer("sim.runtime.windows"), "count");
  put("sim.runtime.arc_pool_bytes", layer("sim.runtime.arc_pool_bytes"),
      "bytes");
  put("sim.shard.local_txns", layer("sim.shard.local_txns", probe), "count");
  put("sim.shard.cross_txns", layer("sim.shard.cross_txns", probe), "count");
  put("sim.shard.fixup_txns", layer("sim.shard.fixup_txns", probe), "count");
  put("sim.shard.peak_members", layer("sim.shard.peak_members", probe),
      "count");
  put("sim.shard.txn_per_s", probe ? probe->txn_per_s : 0.0, "1/s");
  put("sim.admission.deferrals", layer("sim.admission.deferrals"), "count");
  put("sim.admission.raises", layer("sim.admission.raises"), "count");
  put("sim.admission.cuts", layer("sim.admission.cuts"), "count");
  put("sim.admission.admit_ratio", layer("sim.admission.admit_ratio"),
      "ratio");
  put("bench.pass_self_ms", layer("bench.pass_self_ms"), "ms");
  put("trace.txn_per_s", traced.txn_per_s, "1/s");
  put("trace.overhead_ratio", plain.txn_per_s / traced.txn_per_s, "ratio");
  return m;
}

int run(const Args& args) {
  const double load_at_start = one_minute_load();
  std::unique_ptr<Workload> w = make_workload(args.workload, args.short_mode);
  if (!w) usage("unknown workload " + args.workload);

  // Untraced by default: every telemetry site costs one relaxed load.
  TelemetryRegistry::global().set_enabled(false);
  // Start the pool's workers now, before any CPU pinning they would
  // inherit.
  shared_pool();

  std::string error;
  const Setups setups = run_setups(*w, args.seed, &error);

  // Warm-up: fills caches and lazy state, and is the checked reference.
  const PassResult ref = checked_pass(*w, nullptr, /*full_check=*/true);
  if (!ref.error.empty() && error.empty()) error = ref.error;
  // The workload's footprint: what the timed passes keep for the report
  // would otherwise grow it with the pass count.
  const double rss_mb = peak_rss_mb();

  // Traced runs give half the time to traced passes, and half of that to
  // the shard probe when the workload has one.
  const double half = args.seconds / 2;
  const Block plain =
      run_block(*w, args.trace ? half : args.seconds, false, ref, &error);
  std::optional<Block> traced, probe;
  if (args.trace) {
    const bool has_probe = w->use_shard_probe(true);
    if (has_probe) {
      probe = run_block(*w, half / 2, true, ref, &error);
      w->use_shard_probe(false);
    }
    traced = run_block(*w, has_probe ? half / 2 : half, true, ref, &error);
  }

  std::size_t decide_samples = 0;
  for (const PassResult& r : plain.passes) {
    decide_samples += r.decide_us.size();
  }
  const MetricList metrics =
      traced ? per_layer_metrics(setups, plain, *traced,
                                 probe ? &*probe : nullptr)
             : end_to_end_metrics(setups, plain, ref, rss_mb);
  const std::size_t passes = plain.passes.size() +
                             (traced ? traced->passes.size() : 0) +
                             (probe ? probe->passes.size() : 0);
  const std::size_t attempted = w->txns() * passes;
  const std::size_t failed = error.empty() ? 0 : attempted;

  // Detail line: machine fingerprint and what every figure rests on.
  JsonWriter d;
  d.begin_object().key("perfbench_detail").begin_object();
  d.key("workload").value(args.workload);
  d.key("params").value(w->params());
  d.key("seed").value(static_cast<std::uint64_t>(args.seed));
  d.key("short").value(args.short_mode);
  d.key("fingerprint").begin_object();
  d.key("nproc").value(
      static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  for (const auto& [k, v] : build_provenance()) d.key(k).value(v);
  d.key("loadavg_1m_at_start").value(load_at_start);
  d.end_object();
  d.key("setups").value(static_cast<std::uint64_t>(setups.total_s.size()));
  d.key("untraced_passes")
      .value(static_cast<std::uint64_t>(plain.passes.size()));
  d.key("traced_passes")
      .value(static_cast<std::uint64_t>(traced ? traced->passes.size() : 0));
  d.key("shard_probe_passes")
      .value(static_cast<std::uint64_t>(probe ? probe->passes.size() : 0));
  double q = 0;
  d.key("decide_samples").value(static_cast<std::uint64_t>(decide_samples));
  decide_percentile(plain, 0.99, &q);
  d.key("decide_us_p99_is_percentile").value(q);
  d.key("latency_samples")
      .value(static_cast<std::uint64_t>(ref.latency.size()));
  tail_percentile(ref.latency, 0.999, &q);
  d.key("commit_latency_p999_is_percentile").value(q);
  d.key("schedule_hash").value(std::to_string(ref.schedule_hash));
  d.key("pass_wall_s").begin_array();
  for (const PassResult& r : plain.passes) d.value(r.wall_s);
  d.end_array();
  d.key("pass_cpu_s").begin_array();
  for (const PassResult& r : plain.passes) d.value(r.cpu_s);
  d.end_array();
  if (traced) {
    d.key("spans").begin_object();
    for (const auto& [name, t] : traced->spans) {
      d.key(name).begin_object();
      d.key("count").value(static_cast<std::uint64_t>(t.count));
      d.key("inclusive_s").value(t.inclusive_s);
      d.key("self_s").value(t.self_s);
      d.end_object();
    }
    d.end_object();
  }
  d.key("error").value(error);
  d.end_object().end_object();
  std::cout << d.str() << "\n";
  if (!error.empty()) std::cerr << "perfbench: check failed: " << error << "\n";

  JsonWriter j;
  j.begin_object();
  j.key("correct").value(error.empty());
  j.key("attempted").value(static_cast<std::uint64_t>(attempted));
  j.key("failed").value(static_cast<std::uint64_t>(failed));
  j.key("metrics").begin_object();
  for (const auto& [name, vu] : metrics) {
    j.key(name).begin_object();
    j.key("value").value(vu.first);
    j.key("unit").value(vu.second);
    j.end_object();
  }
  j.end_object().end_object();
  std::cout << j.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
