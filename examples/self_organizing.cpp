// Self-organizing network — the full Section-2 system model in one run.
//
// 64 identical sensors, no infrastructure: every round, LEACH (with the
// paper's trust-index admission gate) elects a handful of sensors to serve
// as cluster heads, the rest affiliate with the nearest head, reports flow,
// TIBFIT adjudicates, trust deposits at the base station between rounds,
// and transmission costs drain batteries so leadership keeps rotating.
// A quarter of the sensors are compromised; watch the archive separate
// them and the election stop trusting them with leadership.
//
// Usage: ./self_organizing [rounds=12] [faulty=16] [seed=9]
#include <cstdio>

#include "exp/deployment.h"
#include "util/config.h"

int main(int argc, char** argv) {
    using namespace tibfit;

    util::Config args;
    args.parse_args(argc, argv);
    const auto rounds = static_cast<std::size_t>(args.get_int("rounds", 12));
    const auto n_faulty = static_cast<std::size_t>(args.get_int("faulty", 16));

    exp::Scenario s = exp::Scenario::location_defaults();
    s.seed = static_cast<std::uint64_t>(args.get_int("seed", 9));
    s.faults.natural_error_rate = 0.01;  // correct sensors miss 1% of events

    exp::DeploymentConfig cfg;
    cfg.round_duration = 100.0;
    cfg.leach.ch_fraction = 0.08;
    cfg.leach.ti_threshold = 0.5;

    // 8x8 lattice; the first n_faulty ids are level-0 compromised.
    std::vector<util::Vec2> positions;
    std::vector<bool> faulty;
    for (std::size_t i = 0; i < 64; ++i) {
        positions.push_back({6.25 + 12.5 * static_cast<double>(i % 8),
                             6.25 + 12.5 * static_cast<double>(i / 8)});
        faulty.push_back(i < n_faulty);
    }

    exp::Deployment net(s, cfg, positions, std::move(faulty));
    const double horizon = cfg.round_duration * static_cast<double>(rounds);
    net.generator().schedule_events(static_cast<std::size_t>(horizon / 12.0), 12.0, 6.0);
    net.run(horizon);
    const std::size_t detected = net.detected_events();

    std::printf("Self-organizing run: %zu rounds, %zu events, %zu/64 sensors compromised\n\n",
                net.rounds().size(), net.generator().history().size(), n_faulty);
    std::printf("round  heads                          compromised heads\n");
    std::size_t compromised_leaderships = 0;
    for (const auto& r : net.rounds()) {
        std::printf("%4u   ", r.round);
        std::size_t bad = 0;
        for (auto h : r.heads) {
            std::printf("%2u ", h);
            if (h < n_faulty) ++bad;
        }
        compromised_leaderships += bad;
        std::printf("%*s%zu\n", static_cast<int>(31 - 3 * r.heads.size()), "", bad);
    }

    double vf = 0.0, vc = 0.0;
    for (core::NodeId i = 0; i < positions.size(); ++i) {
        const double ti = net.base_station().archive().ti(i);
        (i < n_faulty ? vf : vc) += ti;
    }
    std::printf("\nevents detected within r_error: %zu/%zu\n", detected,
                net.generator().history().size());
    std::printf("archive mean TI: honest %.3f, compromised %.3f\n",
                vc / static_cast<double>(positions.size() - n_faulty),
                vf / static_cast<double>(n_faulty));
    std::printf("compromised leaderships across all rounds: %zu\n", compromised_leaderships);
    std::printf("alive nodes at end: %zu/64\n", net.alive_nodes());
    return detected * 2 >= net.generator().history().size() ? 0 : 1;
}
