#include "sensor/event_generator.h"

#include <memory>
#include <stdexcept>
#include <utility>

namespace tibfit::sensor {

EventGenerator::EventGenerator(sim::Simulator& sim, util::Rng rng, double field_w,
                               double field_h)
    : sim_(&sim), rng_(rng), field_w_(field_w), field_h_(field_h) {
    if (!(field_w > 0.0) || !(field_h > 0.0)) {
        throw std::invalid_argument("EventGenerator: field dimensions must be > 0");
    }
}

util::Vec2 EventGenerator::draw_location() const { return rng_.point_in_rect(field_w_, field_h_); }

void EventGenerator::schedule_events(std::size_t count, double interval, double start,
                                     std::size_t burst, double min_separation) {
    if (burst == 0) throw std::invalid_argument("EventGenerator: burst must be >= 1");
    // Every location is drawn up front (deterministic order) into the
    // stream's shared body; each event is one fan-out item whose arg is
    // its index there.
    auto locations = std::make_shared<std::vector<util::Vec2>>();
    locations->reserve(count * burst);
    staged_.clear();
    for (std::size_t i = 0; i < count; ++i) {
        const double at = start + interval * static_cast<double>(i);
        // Pairwise separation within the burst by rejection sampling.
        const std::size_t first = locations->size();
        for (std::size_t b = 0; b < burst; ++b) {
            util::Vec2 loc;
            for (int attempt = 0;; ++attempt) {
                loc = draw_location();
                bool ok = true;
                for (std::size_t k = first; k < locations->size(); ++k) {
                    if (util::distance(loc, (*locations)[k]) < min_separation) {
                        ok = false;
                        break;
                    }
                }
                if (ok) break;
                if (attempt > 1000) {
                    throw std::runtime_error(
                        "EventGenerator: cannot satisfy min_separation (field too small?)");
                }
            }
            staged_.push_back(
                sim::FanoutItem{at, this, static_cast<double>(locations->size())});
            locations->push_back(loc);
        }
    }
    sim_->schedule_fanout(
        [](void* body, void* gen, double index) {
            const auto& locs = *static_cast<const std::vector<util::Vec2>*>(body);
            static_cast<EventGenerator*>(gen)->fire_event(locs[static_cast<std::size_t>(index)]);
        },
        locations, staged_);
    scheduled_ += staged_.size();
}

void EventGenerator::schedule_quiet_windows(std::size_t count, double interval, double start,
                                            double spread) {
    staged_.clear();
    for (std::size_t i = 0; i < count; ++i) {
        staged_.push_back(
            sim::FanoutItem{start + interval * static_cast<double>(i), this, spread});
    }
    sim_->schedule_fanout(
        [](void*, void* gen, double spread_arg) {
            static_cast<EventGenerator*>(gen)->fire_quiet(spread_arg);
        },
        nullptr, staged_);
}

void EventGenerator::fire_event(const util::Vec2& location) {
    const std::uint64_t id = next_id_++;
    GeneratedEvent ev;
    ev.id = id;
    ev.time = sim_->now();
    ev.location = location;
    // Event neighbours: one scan over the population in order, so the
    // neighbour list is in node order. A radius-0 node exactly at the event
    // counts (distance 0 <= radius 0).
    hits_.clear();
    for (SensorNode* n : nodes_) {
        if (util::distance(n->position(), location) <= n->sensing_radius()) hits_.push_back(n);
    }
    ev.event_neighbours.reserve(hits_.size());
    for (SensorNode* n : hits_) ev.event_neighbours.push_back(n->id());
    history_.push_back(std::move(ev));
    if (event_cb_) event_cb_(history_.back());
    for (SensorNode* n : hits_) n->on_event(id, location);
}

void EventGenerator::fire_quiet(double spread) {
    const std::uint64_t id = next_quiet_id_++;
    if (quiet_cb_) quiet_cb_(id, sim_->now());
    if (!(spread > 0.0)) {
        for (SensorNode* n : nodes_) n->on_quiet_window(id);
        return;
    }
    // One jittered call per node, drawn in node order; the fan-out keeps
    // the order individual timers would have had.
    staged_.clear();
    const double now = sim_->now();
    for (SensorNode* n : nodes_) {
        staged_.push_back(
            sim::FanoutItem{now + rng_.uniform(0.0, spread), n, static_cast<double>(id)});
    }
    sim_->schedule_fanout(
        [](void*, void* node, double window) {
            static_cast<SensorNode*>(node)->on_quiet_window(static_cast<std::uint64_t>(window));
        },
        nullptr, staged_);
}

}  // namespace tibfit::sensor
