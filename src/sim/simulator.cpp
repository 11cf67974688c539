#include "sim/simulator.hpp"

#include <algorithm>
#include <sstream>

#include "sim/link_policy.hpp"
#include "util/error.hpp"
#include "util/telemetry.hpp"

namespace dtm {

SimResult simulate(const Instance& inst, const Metric& metric,
                   const Schedule& s, const SimOptions& opts) {
  ScopedPhaseTimer phase_timer("phase.simulate");
  const bool faulty = opts.faults != nullptr && opts.faults->active();
  const bool resched = static_cast<bool>(opts.reschedule);
  DTM_REQUIRE(!(opts.earliest_commit && resched),
              "simulate: earliest_commit discards planned times, so a "
              "reschedule hook has no plan to splice into");

  EngineConfig eo;
  eo.record_events = opts.record_events;
  eo.record_hops = opts.record_hops;
  eo.max_commit_stall = opts.recovery.max_commit_stall;
  if (resched) {
    eo.reschedule_fn = opts.reschedule;
    eo.reschedule = opts.reschedule_policy;
  }

  if (opts.capacity == 0 && !resched && !opts.earliest_commit) {
    if (faulty) {
      // Planned schedule on the faulty analytic substrate: late arrivals
      // stall commits (degraded mode) instead of violating.
      eo.discipline = CommitDiscipline::kPlannedDegraded;
      FaultyLinks links(metric, *opts.faults, opts.recovery);
      return Engine(inst, metric, s, links, eo).run();
    }
    // Reliable §2.1 path: strict discipline, absent objects violate.
    eo.discipline = CommitDiscipline::kPlannedStrict;
    UnboundedLinks links(metric);
    return Engine(inst, metric, s, links, eo).run();
  }

  // Stepwise substrate: bounded capacity, mid-run rescheduling and/or
  // earliest commits on FIFO queued links (capacity 0 = unbounded through
  // the queues). The stepwise engine only terminates when orders are sane,
  // so check the validator's permutation precondition up front.
  if (s.object_order.size() == inst.num_objects()) {
    for (ObjectId o = 0; o < inst.num_objects(); ++o) {
      auto sorted = s.object_order[o];
      std::sort(sorted.begin(), sorted.end());
      if (sorted != inst.requesters(o)) {
        SimResult out;
        out.ok = false;
        std::ostringstream os;
        os << "object_order[" << o << "] is not a permutation of o" << o
           << "'s requesters";
        out.violations.push_back(os.str());
        return out;
      }
    }
  }
  if (opts.earliest_commit) {
    eo.discipline = CommitDiscipline::kEarliest;
    // Fault-free earliest runs touch no counters: this keeps the recorded
    // E13b/E19 counter totals stable.
    eo.telemetry = faulty;
  } else {
    eo.discipline = CommitDiscipline::kPlannedDegraded;
  }
  BoundedCapacityLinks bounded(metric, opts.capacity);
  if (faulty) {
    FaultyLinks links(metric, *opts.faults, opts.recovery, &bounded);
    return Engine(inst, metric, s, links, eo).run();
  }
  return Engine(inst, metric, s, bounded, eo).run();
}

}  // namespace dtm
