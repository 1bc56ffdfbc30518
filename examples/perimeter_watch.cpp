// Perimeter watch — the paper's military motivation: "military
// applications to sense any movement within a cordoned-off area."
//
// Sensors ring a protected compound. Two intruders cross the cordon
// simultaneously from different sides — a concurrent-event workload
// (Section 3.3): each footstep pair lands inside one T_out window and the
// CH must separate the circles, cluster each group, and locate both
// intruders at once, all while a third of the perimeter sensors have been
// compromised to hide exactly this kind of incursion (they suppress real
// detections and spoof positions).
//
// Usage: ./perimeter_watch [steps=12] [faulty=33] [seed=4]
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <vector>

#include "cluster/cluster_head.h"
#include "net/channel.h"
#include "sensor/fault_model.h"
#include "sensor/sensor_node.h"
#include "sim/simulator.h"
#include "util/ascii_field.h"
#include "knobs.h"

int main(int argc, char** argv) {
    using namespace tibfit;

    const examples::Knobs knobs("perimeter_watch", argc, argv, {"steps", "faulty", "seed"});
    const std::size_t steps = knobs.count("steps", 12);
    const std::size_t faulty_pct = knobs.count("faulty", 33);
    if (faulty_pct > 100) knobs.fail("knob 'faulty' is a percentage, at most 100");
    const double pct_faulty = static_cast<double>(faulty_pct) / 100.0;
    const std::uint64_t seed = knobs.count("seed", 4);

    sim::Simulator simulator;
    util::Rng root(seed);
    net::ChannelParams cp;
    cp.drop_probability = 0.01;
    net::Channel channel(simulator, root.stream("channel"), cp);

    core::EngineConfig engine_cfg;
    engine_cfg.t_out = 1.0;  // both intruders' reports share each window

    sensor::FaultParams fp;
    fp.correct_sigma = 1.6;
    fp.faulty_sigma = 6.0;
    fp.faulty_drop_rate = 0.5;  // the saboteurs mostly stay silent

    // Two concentric sensor rings around the compound at (50, 50).
    const sim::ProcessId ch_id = 200;
    std::vector<util::Vec2> positions;
    std::vector<std::unique_ptr<sensor::SensorNode>> nodes;
    std::size_t n_faulty = 0;
    std::size_t idx = 0;
    for (double radius : {28.0, 40.0}) {
        const int ring = radius < 30.0 ? 20 : 28;
        for (int i = 0; i < ring; ++i) {
            const double theta = 2.0 * M_PI * static_cast<double>(i) / ring;
            const util::Vec2 pos = util::Vec2{50, 50} + util::Vec2::from_polar(radius, theta);
            positions.push_back(pos);
            const bool faulty =
                root.stream("select", static_cast<std::uint64_t>(idx)).chance(pct_faulty);
            n_faulty += faulty ? 1 : 0;
            std::unique_ptr<sensor::FaultBehavior> behavior;
            if (faulty) {
                behavior = std::make_unique<sensor::Level0Fault>(fp, false);
            } else {
                behavior = std::make_unique<sensor::CorrectBehavior>(fp);
            }
            auto node = std::make_unique<sensor::SensorNode>(
                simulator, static_cast<sim::ProcessId>(idx), pos, engine_cfg.sensing_radius,
                net::Radio(channel, static_cast<sim::ProcessId>(idx)), std::move(behavior),
                root.stream("node", static_cast<std::uint64_t>(idx)), engine_cfg.trust);
            node->set_cluster_head(ch_id);
            channel.attach(*node, pos, 400.0);
            nodes.push_back(std::move(node));
            ++idx;
        }
    }

    cluster::ClusterHead ch(simulator, ch_id, net::Radio(channel, ch_id), engine_cfg);
    ch.set_topology(positions);
    channel.attach(ch, {50, 50}, 400.0);
    channel.set_drop_probability(ch_id, 0.0);

    std::vector<cluster::DecisionRecord> sightings;
    ch.on_decision([&sightings](const cluster::DecisionRecord& r) {
        if (r.event_declared) sightings.push_back(r);
    });

    // Two intruders cross simultaneously: one from the west, one from the
    // south-east, converging on the compound.
    std::vector<util::Vec2> path_a, path_b;
    for (std::size_t s = 0; s < steps; ++s) {
        const double f = static_cast<double>(s) / static_cast<double>(steps - 1);
        path_a.push_back({8.0 + f * 34.0, 50.0 + 6.0 * std::sin(4.0 * f)});
        path_b.push_back({88.0 - f * 30.0, 14.0 + f * 28.0});
        simulator.schedule_at(5.0 + 6.0 * static_cast<double>(s), [&, s] {
            for (auto& n : nodes) {
                // Both footsteps happen in the same instant — a concurrent
                // event pair for every sensor in range of either.
                for (const auto* path : {&path_a, &path_b}) {
                    const util::Vec2& spot = (*path)[s];
                    if (util::distance(n->position(), spot) <= n->sensing_radius()) {
                        n->on_event(s * 2 + (path == &path_b ? 1 : 0), spot);
                    }
                }
            }
        });
    }
    simulator.run();

    auto track_hits = [&](const std::vector<util::Vec2>& path) {
        std::size_t hits = 0;
        for (std::size_t s = 0; s < path.size(); ++s) {
            const double t_event = 5.0 + 6.0 * static_cast<double>(s);
            for (const auto& d : sightings) {
                if (d.time >= t_event && d.time <= t_event + 3.0 &&
                    util::distance(d.location, path[s]) <= engine_cfg.r_error) {
                    ++hits;
                    break;
                }
            }
        }
        return hits;
    };
    const std::size_t hits_a = track_hits(path_a);
    const std::size_t hits_b = track_hits(path_b);

    std::printf("Perimeter watch: two simultaneous intruders, %zu steps each, "
                "%zu/%zu sensors compromised\n\n",
                steps, n_faulty, positions.size());
    std::printf("intruder A localized at %zu/%zu footsteps\n", hits_a, steps);
    std::printf("intruder B localized at %zu/%zu footsteps\n", hits_b, steps);
    std::printf("compromised sensors isolated by trust: %zu\n\n",
                ch.engine().trust().isolated_nodes().size());

    util::AsciiField picture(100.0, 100.0, 60, 24);
    picture.circle({50, 50}, 28.0, ':');
    picture.circle({50, 50}, 40.0, ':');
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        picture.mark(nodes[i]->position(),
                     nodes[i]->node_class() == sensor::NodeClass::Correct ? 'o' : 'x');
    }
    picture.mark_all(path_a, 'A');
    picture.mark_all(path_b, 'B');
    for (const auto& d : sightings) picture.mark(d.location, '@');
    picture.legend('o', "honest perimeter sensor");
    picture.legend('x', "compromised sensor");
    picture.legend('A', "intruder A's true path");
    picture.legend('B', "intruder B's true path");
    picture.legend('@', "cluster head sighting");
    std::ostringstream art;
    picture.print(art);
    std::fputs(art.str().c_str(), stdout);

    return (hits_a * 3 >= steps * 2 && hits_b * 3 >= steps * 2) ? 0 : 1;
}
