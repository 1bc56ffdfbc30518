// Target tracking — the Section-3.2 scenario: "a network attempting to
// track a mobile sensor node that is transmitting a signal as it moves
// throughout the network."
//
// 100 fixed sensors on a 100x100 lattice hear the target's transmissions
// and report its estimated position to the cluster head. A configurable
// fraction of the sensors is compromised and reports wildly wrong
// positions. The CH fuses each burst of reports with the event clusterer +
// trust-weighted vote and prints the reconstructed track next to the truth.
//
// Usage: ./target_tracking [steps=30] [faulty=30] [seed=3]
#include <cmath>
#include <cstdio>
#include <sstream>
#include <memory>
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

    const examples::Knobs knobs("target_tracking", argc, argv, {"steps", "faulty", "seed"});
    const std::size_t steps = knobs.count("steps", 30);
    const std::size_t faulty_pct = knobs.count("faulty", 30);
    if (faulty_pct > 100) knobs.fail("knob 'faulty' is a percentage, at most 100");
    const double pct_faulty = static_cast<double>(faulty_pct) / 100.0;
    const std::uint64_t seed = knobs.count("seed", 3);

    sim::Simulator simulator;
    util::Rng root(seed);
    net::ChannelParams cp;
    cp.drop_probability = 0.01;
    net::Channel channel(simulator, root.stream("channel"), cp);

    core::EngineConfig engine_cfg;  // r_s = 20, r_error = 5, lambda = 0.25
    sensor::FaultParams fp;
    fp.correct_sigma = 1.6;
    fp.faulty_sigma = 6.0;
    fp.faulty_drop_rate = 0.25;

    // 10x10 sensor lattice; every pct_faulty-th sensor is compromised.
    const sim::ProcessId ch_id = 100;
    std::vector<util::Vec2> positions;
    std::vector<std::unique_ptr<sensor::SensorNode>> nodes;
    std::size_t n_faulty = 0;
    for (int i = 0; i < 100; ++i) {
        const util::Vec2 pos{5.0 + 10.0 * (i % 10), 5.0 + 10.0 * (i / 10)};
        positions.push_back(pos);
        const bool faulty = root.stream("select", static_cast<std::uint64_t>(i)).chance(pct_faulty);
        n_faulty += faulty ? 1 : 0;
        std::unique_ptr<sensor::FaultBehavior> behavior;
        if (faulty) {
            behavior = std::make_unique<sensor::Level0Fault>(fp, false);
        } else {
            behavior = std::make_unique<sensor::CorrectBehavior>(fp);
        }
        auto node = std::make_unique<sensor::SensorNode>(
            simulator, static_cast<sim::ProcessId>(i), pos, engine_cfg.sensing_radius,
            net::Radio(channel, static_cast<sim::ProcessId>(i)), std::move(behavior),
            root.stream("node", static_cast<std::uint64_t>(i)), engine_cfg.trust);
        node->set_cluster_head(ch_id);
        channel.attach(*node, pos, 400.0);
        nodes.push_back(std::move(node));
    }

    cluster::ClusterHead ch(simulator, ch_id, net::Radio(channel, ch_id), engine_cfg);
    ch.set_topology(positions);
    channel.attach(ch, {50, 50}, 400.0);
    channel.set_drop_probability(ch_id, 0.0);

    std::vector<cluster::DecisionRecord> track;
    ch.on_decision([&track](const cluster::DecisionRecord& r) {
        if (r.event_declared) track.push_back(r);
    });

    // The target walks a sine-wave path across the field; each transmission
    // is an "event" heard by the sensors within range.
    std::vector<util::Vec2> truth;
    for (std::size_t s = 0; s < steps; ++s) {
        const double x = 10.0 + 80.0 * static_cast<double>(s) / static_cast<double>(steps - 1);
        const double y = 50.0 + 25.0 * std::sin(x / 12.0);
        truth.push_back({x, y});
        simulator.schedule_at(5.0 + 4.0 * static_cast<double>(s), [&, s] {
            for (auto& n : nodes) {
                if (util::distance(n->position(), truth[s]) <= n->sensing_radius()) {
                    n->on_event(s, truth[s]);
                }
            }
        });
    }
    simulator.run();

    std::printf("Target tracking: %zu transmissions, %zu/100 sensors compromised\n\n", steps,
                n_faulty);
    std::printf("step   truth            estimate         error\n");
    double total_err = 0.0;
    std::size_t hits = 0;
    for (std::size_t s = 0; s < truth.size(); ++s) {
        // Match the declared position closest in time to this step.
        const double t_event = 5.0 + 4.0 * static_cast<double>(s);
        const cluster::DecisionRecord* best = nullptr;
        for (const auto& d : track) {
            if (d.time >= t_event && d.time <= t_event + 3.0 &&
                util::distance(d.location, truth[s]) <= 3.0 * engine_cfg.r_error) {
                if (!best || util::distance(d.location, truth[s]) <
                                 util::distance(best->location, truth[s])) {
                    best = &d;
                }
            }
        }
        if (best) {
            const double err = util::distance(best->location, truth[s]);
            total_err += err;
            hits += err <= engine_cfg.r_error ? 1 : 0;
            std::printf("%3zu   (%5.1f,%5.1f)   (%5.1f,%5.1f)   %5.2f\n", s, truth[s].x,
                        truth[s].y, best->location.x, best->location.y, err);
        } else {
            std::printf("%3zu   (%5.1f,%5.1f)   --- lost ---\n", s, truth[s].x, truth[s].y);
        }
    }
    std::printf("\ntracked within r_error: %zu/%zu, mean error %.2f units\n", hits, steps,
                hits ? total_err / static_cast<double>(hits) : 0.0);
    std::printf("trust table now isolates %zu sensors as faulty\n\n",
                ch.engine().trust().isolated_nodes().size());

    // Picture: the field, the true walk, and the CH's reconstruction.
    util::AsciiField picture(100.0, 100.0, 60, 24);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        picture.mark(nodes[i]->position(),
                     nodes[i]->node_class() == sensor::NodeClass::Correct ? '.' : 'x');
    }
    picture.mark_all(truth, 'T');
    for (const auto& d : track) picture.mark(d.location, '@');
    picture.legend('.', "honest sensor");
    picture.legend('x', "compromised sensor");
    picture.legend('T', "true target track");
    picture.legend('@', "cluster head's estimate");
    std::ostringstream art;
    picture.print(art);
    std::fputs(art.str().c_str(), stdout);
    return hits * 2 >= steps ? 0 : 1;
}
