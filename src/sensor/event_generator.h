// The simulation's ground-truth oracle (Section 4): "Events are generated
// at regular time intervals by the event generator, using a uniform random
// variable to generate X and Y coordinates uniformly distributed in the
// network. The event generator informs the event neighbors of the event and
// its location."
//
// The generator is not a network entity — it calls event neighbours
// directly and records ground truth for the experiment harness to score
// against.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sensor/sensor_node.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/vec2.h"

namespace tibfit::sensor {

/// Ground-truth record of one generated event.
struct GeneratedEvent {
    std::uint64_t id = 0;
    double time = 0.0;
    util::Vec2 location;
    std::vector<sim::ProcessId> event_neighbours;  ///< nodes within r_s
};

/// Generates events and quiet windows over a node population.
class EventGenerator {
  public:
    /// Events are placed uniformly on [0,field_w) x [0,field_h). Nodes
    /// within their own sensing radius of the event are informed.
    EventGenerator(sim::Simulator& sim, util::Rng rng, double field_w, double field_h);

    /// The population (non-owning). May be re-pointed between runs.
    void set_nodes(std::vector<SensorNode*> nodes) { nodes_ = std::move(nodes); }

    /// Called (at event time) with the ground-truth record, before the
    /// neighbours are informed. Used by the harness to score decisions.
    void on_event(std::function<void(const GeneratedEvent&)> cb) { event_cb_ = std::move(cb); }

    /// Called at each quiet window with its id.
    void on_quiet(std::function<void(std::uint64_t id, double time)> cb) {
        quiet_cb_ = std::move(cb);
    }

    /// Schedules `count` event instants starting at `start`, one every
    /// `interval` seconds. Each instant carries `burst` simultaneous events
    /// (1 = the paper's single-event runs; >1 = Experiment 2's concurrent
    /// runs) whose locations are pairwise at least `min_separation` apart
    /// (rejection sampling; the paper requires concurrent events never
    /// within r_error of each other). All locations are drawn here, and the
    /// whole call takes one queue entry (a sim fan-out) that fires each
    /// event exactly as its own timer would have. All or nothing: if it
    /// throws (burst 0, unsatisfiable separation, a start in the past),
    /// nothing is scheduled and scheduled() is unchanged.
    void schedule_events(std::size_t count, double interval, double start = 0.0,
                         std::size_t burst = 1, double min_separation = 0.0);

    /// Schedules `count` quiet windows (potential false-alarm opportunities),
    /// one every `interval` seconds starting at `start`, as one queue entry
    /// (all or nothing, like schedule_events). Every node gets an
    /// on_quiet_window call; each node's call is jittered by an independent
    /// uniform delay in [0, spread) so that level-0 false alarms are
    /// *uncoordinated* in time (each typically opens its own decision
    /// window at the CH). A window's jittered calls share one queue entry
    /// too. spread = 0 fires every node simultaneously.
    void schedule_quiet_windows(std::size_t count, double interval, double start,
                                double spread = 0.0);

    /// Ground truth so far (grows as the simulation runs).
    const std::vector<GeneratedEvent>& history() const { return history_; }

    /// Total events scheduled (burst counted individually).
    std::size_t scheduled() const { return scheduled_; }

  private:
    void fire_event(const util::Vec2& location);
    void fire_quiet(double spread);
    util::Vec2 draw_location() const;

    sim::Simulator* sim_;
    mutable util::Rng rng_;
    double field_w_;
    double field_h_;
    std::vector<SensorNode*> nodes_;
    std::vector<SensorNode*> hits_;  ///< the current event's neighbours (reused)
    std::vector<sim::FanoutItem> staged_;  ///< fan-out items being built (reused)
    std::function<void(const GeneratedEvent&)> event_cb_;
    std::function<void(std::uint64_t, double)> quiet_cb_;
    std::vector<GeneratedEvent> history_;
    std::uint64_t next_id_ = 0;
    std::uint64_t next_quiet_id_ = 1u << 20;  ///< disjoint from event ids
    std::size_t scheduled_ = 0;
};

}  // namespace tibfit::sensor
