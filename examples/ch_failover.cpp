// Cluster-head failover — Section 3.4 end to end.
//
// Even the data sink can fail: here the elected cluster head is corrupt
// and announces the opposite of every conclusion its own engine reaches.
// Two shadow cluster heads overhear all traffic in and out of the CH,
// repeat the computation, and alert the base station whenever the
// announcement diverges from their own result. The base station votes
// 2-against-1, publishes the corrected conclusion, demotes the CH's trust,
// and prompts re-election.
//
// Usage: ./ch_failover [events=20] [seed=5]
#include <cstdio>
#include <memory>
#include <vector>

#include "cluster/base_station.h"
#include "cluster/cluster_head.h"
#include "cluster/shadow.h"
#include "net/channel.h"
#include "sensor/fault_model.h"
#include "sensor/sensor_node.h"
#include "sim/simulator.h"
#include "knobs.h"

int main(int argc, char** argv) {
    using namespace tibfit;

    const examples::Knobs knobs("ch_failover", argc, argv, {"events", "seed"});
    const std::size_t events = knobs.count("events", 20);
    const std::uint64_t seed = knobs.count("seed", 5);

    sim::Simulator simulator;
    util::Rng root(seed);
    net::ChannelParams cp;
    cp.drop_probability = 0.0;  // keep the demo deterministic
    net::Channel channel(simulator, root.stream("channel"), cp);

    core::EngineConfig engine_cfg;
    engine_cfg.t_out = 1.0;

    // Eight honest sensors in a row; ids 100-103 for CH, shadows, station.
    const sim::ProcessId kCh = 100, kSch1 = 101, kSch2 = 102, kBs = 103;
    std::vector<util::Vec2> positions;
    std::vector<std::unique_ptr<sensor::SensorNode>> nodes;
    sensor::FaultParams fp;
    fp.natural_error_rate = 0.0;
    for (int i = 0; i < 8; ++i) {
        const util::Vec2 pos{static_cast<double>(5 * i), 0.0};
        positions.push_back(pos);
        auto node = std::make_unique<sensor::SensorNode>(
            simulator, static_cast<sim::ProcessId>(i), pos, 1000.0,
            net::Radio(channel, static_cast<sim::ProcessId>(i)),
            std::make_unique<sensor::CorrectBehavior>(fp),
            root.stream("node", static_cast<std::uint64_t>(i)), engine_cfg.trust);
        node->set_binary_mode(true);
        node->set_cluster_head(kCh);
        channel.attach(*node, pos, 1000.0);
        nodes.push_back(std::move(node));
    }

    cluster::ClusterHead ch(simulator, kCh, net::Radio(channel, kCh), engine_cfg);
    ch.set_binary_mode(true);
    ch.set_topology(positions);
    ch.set_base_station(kBs);
    ch.set_corrupt(true);  // the failure being tolerated
    channel.attach(ch, {17, 5}, 1000.0);

    cluster::ShadowClusterHead sch1(simulator, kSch1, net::Radio(channel, kSch1), engine_cfg,
                                    kCh, kBs);
    cluster::ShadowClusterHead sch2(simulator, kSch2, net::Radio(channel, kSch2), engine_cfg,
                                    kCh, kBs);
    for (auto* s : {&sch1, &sch2}) {
        s->set_binary_mode(true);
        s->set_topology(positions);
    }
    channel.attach(sch1, {16, 5}, 1000.0);
    channel.attach(sch2, {18, 5}, 1000.0);
    channel.add_monitor(kSch1, kCh);
    channel.add_monitor(kSch2, kCh);

    cluster::BaseStation station(simulator, kBs, net::Radio(channel, kBs), engine_cfg.trust,
                                 0.5);
    channel.attach(station, {17, 60}, 1000.0);

    bool reelection_prompted = false;
    station.on_reelection([&](sim::ProcessId faulty) {
        reelection_prompted = true;
        std::printf("  -> base station prompts re-election (demoting CH %u)\n", faulty);
    });

    // Real events observed by every sensor.
    for (std::size_t e = 0; e < events; ++e) {
        simulator.schedule_at(5.0 + 10.0 * static_cast<double>(e), [&, e] {
            for (auto& n : nodes) n->on_event(e, {17, 0});
        });
    }
    simulator.run();

    std::printf("\n%zu events; the corrupt CH announced 'no event' every time.\n\n", events);
    std::printf("CH announcements (corrupt):   %zu decisions, all inverted\n",
                ch.decisions_announced());
    std::printf("shadow alerts filed:          %zu + %zu\n", sch1.alerts_sent(),
                sch2.alerts_sent());
    std::size_t corrected = 0;
    for (const auto& f : station.final_decisions()) corrected += f.overridden ? 1 : 0;
    std::printf("base-station final decisions: %zu, of which %zu overridden by the 2-vs-1 vote\n",
                station.final_decisions().size(), corrected);
    std::printf("CH trust at the base station: %.3f (was 1.0)\n", station.ch_trust(kCh));
    std::printf("re-election prompted:         %s\n", reelection_prompted ? "yes" : "no");

    const bool ok = corrected == station.final_decisions().size() && corrected > 0 &&
                    reelection_prompted;
    std::printf("\n%s\n", ok ? "All corrupt announcements were masked." : "FAILOVER INCOMPLETE");
    return ok ? 0 : 1;
}
