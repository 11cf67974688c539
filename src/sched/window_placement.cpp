#include "sched/window_placement.hpp"

#include <algorithm>
#include <numeric>

namespace dtm {

WindowPlacer::WindowPlacer(const Metric& metric,
                           std::vector<NodeId> object_home)
    : metric_(&metric),
      chains_(object_home.size()),
      pos_(std::move(object_home)),
      visited_(pos_.size(), 0) {}

Time WindowPlacer::place(const ColoredSubset& colored, Time close,
                         std::span<const Transaction> txns,
                         std::vector<Time>& commit) {
  DTM_ASSERT(metric_ != nullptr);
  // Members in color order (ties by id): the order they visit each object.
  by_color_.resize(colored.txns.size());
  std::iota(by_color_.begin(), by_color_.end(), 0);
  std::sort(by_color_.begin(), by_color_.end(),
            [&](std::size_t a, std::size_t b) {
              return colored.local_time[a] != colored.local_time[b]
                         ? colored.local_time[a] < colored.local_time[b]
                         : colored.txns[a] < colored.txns[b];
            });
  // An object's first visitor pays the transition from the old tail; the
  // tail then follows the visitors and ends at the last one.
  ++window_;
  Weight transition = 0;
  for (std::size_t i : by_color_) {
    const Transaction& t = txns[colored.txns[i]];
    for (ObjectId o : t.objects) {
      if (visited_[o] != window_) {
        visited_[o] = window_;
        transition = std::max(transition, metric_->distance(pos_[o], t.home));
      }
      chains_[o].push_back(colored.txns[i]);
      pos_[o] = t.home;
    }
  }
  const Time start = std::max(horizon_, close - 1) + transition;
  for (std::size_t i = 0; i < colored.txns.size(); ++i) {
    commit[colored.txns[i]] = start + colored.local_time[i];
  }
  horizon_ = std::max(horizon_, start + colored.duration);
  return start;
}

}  // namespace dtm
