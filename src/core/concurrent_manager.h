// Section 3.3 — separating concurrent events.
//
// The CH draws a symbolic circle of radius r_error around the first report
// of each prospective event and starts a per-circle T_out timer. Subsequent
// reports inside an existing circle join it; reports outside all circles
// open a new circle with their own timer. When a circle's timer expires the
// CH releases it — unless it overlaps other circles, in which case it waits
// for every circle in the (transitive) overlap component to expire, then
// releases the union of their reports as one group for clustering.
//
// This class is a pure, simulator-independent state machine: the owner
// feeds (time, report) pairs and polls for ready groups at timer deadlines.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "util/geometry.h"
#include "util/vec2.h"

namespace tibfit::core {

/// A group of report indices released together for clustering.
using ReportGroup = std::vector<std::size_t>;

/// State machine implementing the concurrent-event circle protocol.
class ConcurrentEventManager {
  public:
    /// `r_error` is the circle radius; `t_out` the per-circle wait.
    ConcurrentEventManager(double r_error, double t_out);

    double r_error() const { return r_error_; }
    double t_out() const { return t_out_; }

    /// Registers a report arriving at `now` claiming location `loc`.
    /// `report_index` is an opaque caller-side handle returned in groups.
    /// Returns true if the report opened a new circle (i.e. the caller
    /// should arrange to call collect_ready at `now + t_out`).
    bool add_report(double now, std::size_t report_index, const util::Vec2& loc);

    /// Earliest pending circle deadline, if any circle is still open.
    /// O(1): the owner polls this once per submitted report, so the value
    /// is maintained incrementally (add_report takes the min; collect_ready
    /// recomputes over the circles it leaves open) instead of rescanning
    /// every open circle per call.
    std::optional<double> next_deadline() const { return next_deadline_; }

    /// Releases every overlap component whose circles have all expired by
    /// `now`. Each returned group is the union of the component's report
    /// indices, in arrival order. Released circles are forgotten. The groups
    /// live in the manager's reused storage: the span is valid until the
    /// next call.
    std::span<const ReportGroup> collect_ready(double now);

    /// True if no un-released circles remain.
    bool idle() const { return circles_.empty(); }

    /// Number of open circles.
    std::size_t open_circles() const { return circles_.size(); }

  private:
    struct CircleState {
        util::Circle circle;
        double deadline;
        std::vector<std::size_t> members;  // report indices, arrival order
    };

    double r_error_;
    double t_out_;
    std::vector<CircleState> circles_;
    /// Invariant: min deadline over circles_, nullopt when none are open.
    std::optional<double> next_deadline_;

    // collect_ready's storage, reused from call to call so that a window
    // allocates nothing it throws away.
    std::vector<std::size_t> parent_;  ///< union-find over circles, then each circle's root
    std::vector<std::size_t> slot_;    ///< per root: its group's index, or kBlocked
    std::vector<ReportGroup> groups_;  ///< collect_ready's span covers the first ones
    std::vector<std::vector<std::size_t>> spare_;  ///< released circles' member lists
};

}  // namespace tibfit::core
