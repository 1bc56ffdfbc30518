// EventGenerator neighbour resolution. These tests move nodes between
// events (mobility), re-point the node set, and use degenerate radii — the
// reported neighbour set must match a brute-force scan of the *current*
// topology at every event.
//
// The generator schedules each call's events, quiet windows and jittered
// quiet-window calls as one sim fan-out; the last tests pin that these
// fire exactly as individually pushed timers would, and that a failing
// call schedules nothing.
#include "sensor/event_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/channel.h"
#include "sensor/sensor_node.h"

namespace tibfit::sensor {
namespace {

net::ChannelParams lossless() {
    net::ChannelParams p;
    p.drop_probability = 0.0;
    return p;
}

class EventGeneratorTest : public ::testing::Test {
  protected:
    EventGeneratorTest() : channel_(simulator_, util::Rng(1), lossless()) {}

    SensorNode* make_node(sim::ProcessId id, util::Vec2 pos, double radius = 20.0,
                          std::unique_ptr<FaultBehavior> behavior = nullptr) {
        if (!behavior) behavior = std::make_unique<CorrectBehavior>(FaultParams{});
        nodes_.push_back(std::make_unique<SensorNode>(
            simulator_, id, pos, radius, net::Radio(channel_, id), std::move(behavior),
            util::Rng(id + 7), core::TrustParams{}));
        channel_.attach(*nodes_.back(), pos, 200.0);
        return nodes_.back().get();
    }

    std::vector<SensorNode*> node_ptrs() {
        std::vector<SensorNode*> out;
        for (auto& n : nodes_) out.push_back(n.get());
        return out;
    }

    /// The reference scan, over the *current* node positions.
    std::vector<sim::ProcessId> brute_neighbours(const util::Vec2& loc) const {
        std::vector<sim::ProcessId> out;
        for (const auto& n : nodes_) {
            if (util::distance(n->position(), loc) <= n->sensing_radius()) {
                out.push_back(n->id());
            }
        }
        return out;
    }

    sim::Simulator simulator_;
    net::Channel channel_;
    std::vector<std::unique_ptr<SensorNode>> nodes_;
};

TEST_F(EventGeneratorTest, NeighboursWithinSensingRadius) {
    make_node(0, {10, 10});   // 14.1 from (20,20): neighbour
    make_node(1, {90, 90});   // far: not a neighbour
    make_node(2, {20, 20});   // at the event: neighbour
    EventGenerator gen(simulator_, util::Rng(2), 100.0, 100.0);
    gen.set_nodes(node_ptrs());

    // Event locations are random, so assert the invariant rather than a
    // fixed set: every generated event must agree with the brute scan.
    gen.schedule_events(5, 1.0, 0.0);
    gen.on_event([&](const GeneratedEvent& ev) {
        EXPECT_EQ(ev.event_neighbours, brute_neighbours(ev.location)) << "event " << ev.id;
    });
    simulator_.run();
    EXPECT_EQ(gen.history().size(), 5u);
}

TEST_F(EventGeneratorTest, MovedNodesChangeNeighbourSetsBetweenEvents) {
    // One node patrols between two corners; events land uniformly. After
    // every event the neighbour set must reflect the position the node had
    // *at that event*, not the position it had when the set was given.
    SensorNode* rover = make_node(0, {10, 10}, 40.0);
    make_node(1, {50, 50});
    make_node(2, {90, 90});
    EventGenerator gen(simulator_, util::Rng(3), 100.0, 100.0);
    gen.set_nodes(node_ptrs());

    gen.on_event([&](const GeneratedEvent& ev) {
        EXPECT_EQ(ev.event_neighbours, brute_neighbours(ev.location)) << "event " << ev.id;
    });
    gen.schedule_events(16, 1.0, 0.5);
    // Teleport the rover across the field between consecutive events.
    for (int i = 0; i < 16; ++i) {
        const double x = (i % 2 == 0) ? 90.0 : 10.0;
        simulator_.schedule_at(static_cast<double>(i) + 1.0, [rover, x] {
            rover->set_position({x, 10.0});
        });
    }
    simulator_.run();
    EXPECT_EQ(gen.history().size(), 16u);

    // Sanity: the rover's membership actually flipped across the run
    // (otherwise the test never exercised a post-move event).
    int with = 0;
    int without = 0;
    for (const auto& ev : gen.history()) {
        const auto& nb = ev.event_neighbours;
        (std::find(nb.begin(), nb.end(), rover->id()) != nb.end() ? with : without)++;
    }
    EXPECT_GT(with, 0);
    EXPECT_GT(without, 0);
}

TEST_F(EventGeneratorTest, SetNodesRepointsAndRebuilds) {
    make_node(0, {10, 10});
    EventGenerator gen(simulator_, util::Rng(4), 100.0, 100.0);
    gen.set_nodes(node_ptrs());

    // Re-point at a different population (same size, different geometry):
    // events must see the new one even though the count matches.
    nodes_.clear();
    make_node(5, {60, 60});
    gen.set_nodes(node_ptrs());

    gen.on_event([&](const GeneratedEvent& ev) {
        EXPECT_EQ(ev.event_neighbours, brute_neighbours(ev.location)) << "event " << ev.id;
    });
    gen.schedule_events(5, 1.0, 0.0);
    simulator_.run();
    EXPECT_EQ(gen.history().size(), 5u);
}

TEST_F(EventGeneratorTest, ChangedRadiusInvalidatesSnapshot) {
    // Radius changes (not just positions) must also be seen. Simulate by
    // swapping the node set for one with a larger radius node at the same
    // position.
    make_node(0, {50, 50}, 5.0);
    EventGenerator gen(simulator_, util::Rng(5), 100.0, 100.0);
    gen.set_nodes(node_ptrs());

    nodes_.clear();
    make_node(0, {50, 50}, 80.0);  // now covers the whole field
    gen.set_nodes(node_ptrs());
    gen.on_event([&](const GeneratedEvent& ev) {
        EXPECT_EQ(ev.event_neighbours, brute_neighbours(ev.location)) << "event " << ev.id;
        EXPECT_EQ(ev.event_neighbours.size(), 1u);  // covers everything
    });
    gen.schedule_events(4, 1.0, 0.0);
    simulator_.run();
    EXPECT_EQ(gen.history().size(), 4u);
}

TEST_F(EventGeneratorTest, ZeroRadiusFallsBackToPlainScan) {
    // A radius-0 node counts only when an event lands exactly on it
    // (distance 0 <= radius 0).
    make_node(0, {50, 50}, 0.0);
    EventGenerator gen(simulator_, util::Rng(6), 100.0, 100.0);
    gen.set_nodes(node_ptrs());
    gen.on_event([&](const GeneratedEvent& ev) {
        EXPECT_EQ(ev.event_neighbours, brute_neighbours(ev.location)) << "event " << ev.id;
    });
    gen.schedule_events(3, 1.0, 0.0);
    simulator_.run();
    EXPECT_EQ(gen.history().size(), 3u);
}

/// Logs each quiet-window call it sees; never reports.
class QuietLogBehavior : public FaultBehavior {
  public:
    QuietLogBehavior(std::string label, std::vector<std::string>* log)
        : label_(std::move(label)), log_(log) {}
    SenseAction on_event(const SenseContext&, util::Rng&) override { return {}; }
    SenseAction on_quiet(const SenseContext&, util::Rng&) override {
        log_->push_back(label_);
        return {};
    }
    NodeClass node_class() const override { return NodeClass::Correct; }

  private:
    std::string label_;
    std::vector<std::string>* log_;
};

TEST_F(EventGeneratorTest, StreamsFireInPushOrderWithSameInstantTimers) {
    // Timers share instants with events, quiet windows and one jittered
    // quiet-window call, and are pushed both before and after the
    // generator's calls. Everything must fire in (time, push order), as
    // if every event and every jittered call had been its own timer.
    constexpr std::size_t kNodes = 3;
    constexpr double kSpread = 0.5;
    std::vector<std::string> log;
    for (std::size_t i = 0; i < kNodes; ++i) {
        make_node(static_cast<sim::ProcessId>(i), {10.0 + 30.0 * static_cast<double>(i), 50.0},
                  20.0, std::make_unique<QuietLogBehavior>("node " + std::to_string(i), &log));
    }
    EventGenerator gen(simulator_, util::Rng(7), 100.0, 100.0);
    gen.set_nodes(node_ptrs());
    gen.on_event(
        [&](const GeneratedEvent& ev) { log.push_back("event " + std::to_string(ev.id)); });
    gen.on_quiet([&](std::uint64_t, double) { log.push_back("quiet"); });

    // The generator's draws, replayed: three event locations now, then
    // each window's per-node jitters in node order when it fires.
    util::Rng replay(7);
    for (int i = 0; i < 3; ++i) (void)replay.point_in_rect(100.0, 100.0);
    std::vector<std::vector<double>> jittered(2);
    for (std::size_t w = 0; w < 2; ++w) {
        for (std::size_t i = 0; i < kNodes; ++i) {
            jittered[w].push_back(1.0 + static_cast<double>(w) + replay.uniform(0.0, kSpread));
        }
    }
    const double j0 = jittered[0][0];  // node 0's call in the first window

    const auto mark = [&](std::string label) { return [&log, label] { log.push_back(label); }; };
    simulator_.schedule_at(1.0, mark("A"));
    simulator_.schedule_at(2.0, mark("B"));
    simulator_.schedule_at(j0, mark("J before"));
    gen.schedule_events(3, 1.0, 1.0);
    gen.schedule_quiet_windows(2, 1.0, 1.0, kSpread);
    EXPECT_EQ(gen.scheduled(), 3u);
    EXPECT_EQ(simulator_.pending(), 3u + 3u + 2u);  // each event and window counts once
    // Runs at t = 1 after the first window fired, so it is pushed after
    // that window's jittered calls.
    simulator_.schedule_at(1.0, [&] {
        log.push_back("C");
        simulator_.schedule_at(j0, mark("J after"));
    });
    simulator_.schedule_at(3.0, mark("D"));

    // The expected order: by time, then by push order.
    const auto window = [&](std::size_t w, bool with_j) {
        std::vector<std::pair<double, std::string>> pushed;
        if (with_j) pushed.emplace_back(j0, "J before");
        for (std::size_t i = 0; i < kNodes; ++i) {
            pushed.emplace_back(jittered[w][i], "node " + std::to_string(i));
        }
        if (with_j) pushed.emplace_back(j0, "J after");
        std::stable_sort(pushed.begin(), pushed.end(),
                         [](const auto& a, const auto& b) { return a.first < b.first; });
        std::vector<std::string> out;
        for (auto& p : pushed) out.push_back(p.second);
        return out;
    };
    std::vector<std::string> expected{"A", "event 0", "quiet", "C"};
    for (auto& s : window(0, true)) expected.push_back(s);
    for (const char* s : {"B", "event 1", "quiet"}) expected.emplace_back(s);
    for (auto& s : window(1, false)) expected.push_back(s);
    for (const char* s : {"event 2", "D"}) expected.emplace_back(s);

    simulator_.run();
    EXPECT_EQ(log, expected);
    // 3 events + 2 windows + 6 jittered calls + 6 timers.
    EXPECT_EQ(simulator_.executed(), 17u);
}

TEST_F(EventGeneratorTest, FailedScheduleEventsSchedulesNothing) {
    // A 10 x 10 field cannot keep most pairs 13 apart: rejection sampling
    // gives up partway through, after some instants were already drawn.
    EventGenerator gen(simulator_, util::Rng(16), 10.0, 10.0);
    EXPECT_THROW(gen.schedule_events(20, 1.0, 0.0, /*burst=*/2, /*min_separation=*/13.0),
                 std::runtime_error);
    EXPECT_EQ(simulator_.pending(), 0u);
    EXPECT_EQ(gen.scheduled(), 0u);
}

TEST_F(EventGeneratorTest, PastInstantsScheduleNothing) {
    // Counting down from t = 6 by 1 reaches the past (now = 5) at the
    // third instant; neither stream may leave its first two behind.
    simulator_.schedule_at(5.0, [] {});
    simulator_.run();
    EventGenerator gen(simulator_, util::Rng(3), 100.0, 100.0);
    EXPECT_THROW(gen.schedule_events(3, -1.0, 6.0), std::invalid_argument);
    EXPECT_THROW(gen.schedule_quiet_windows(3, -1.0, 6.0), std::invalid_argument);
    EXPECT_EQ(simulator_.pending(), 0u);
    EXPECT_EQ(gen.scheduled(), 0u);
}

}  // namespace
}  // namespace tibfit::sensor
