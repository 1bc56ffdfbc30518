// LEACH cluster-head rotation with the paper's trust-index admission rule
// (Section 2): "We have also incorporated the TI of the node as an
// additional parameter to be considered for CH election. The TI of the
// node has to be higher than a threshold value to ensure that only
// sufficiently trusted nodes can become CHs."
//
// Twenty nodes run rounds of LEACH election. Every transmission drains the
// battery, so leadership rotates to spread the energy cost; and once nodes
// 0-4 are diagnosed as compromised (their trust index collapses), the TI
// gate locks them out of leadership even when the classic LEACH threshold
// would elect them.
//
// Usage: ./leach_rounds [rounds=24] [seed=2]
#include <cstdio>
#include <map>
#include <vector>

#include "cluster/energy.h"
#include "cluster/leach.h"
#include "core/trust.h"
#include "knobs.h"
#include "util/rng.h"

int main(int argc, char** argv) {
    using namespace tibfit;

    const examples::Knobs knobs("leach_rounds", argc, argv, {"rounds", "seed"});
    const auto rounds = static_cast<std::uint32_t>(knobs.count("rounds", 24));
    const std::uint64_t seed = knobs.count("seed", 2);

    util::Rng rng(seed);
    constexpr std::size_t kNodes = 20;
    constexpr std::size_t kCompromised = 5;  // nodes 0-4

    // Trust table as the base station would hold it: the compromised nodes
    // have already been caught lying a few times.
    core::TrustParams tp;
    tp.lambda = 0.25;
    core::TrustManager trust(tp);
    for (core::NodeId n = 0; n < kCompromised; ++n) {
        for (int k = 0; k < 5; ++k) trust.judge_faulty(n);
    }

    // Batteries and the energy model: serving as CH costs a round of
    // aggregation + long-haul transmissions.
    cluster::EnergyParams ep;
    std::vector<cluster::Battery> batteries(kNodes, cluster::Battery(0.5));
    const double serve_cost = cluster::tx_cost(ep, 4000 * 100, 80.0);  // aggregate + uplink
    const double member_cost = cluster::tx_cost(ep, 4000, 25.0);       // report to the CH

    cluster::LeachParams lp;
    lp.ch_fraction = 0.15;
    lp.ti_threshold = 0.5;
    cluster::LeachElection election(lp, rng.stream("election"));

    std::map<sim::ProcessId, int> served;
    std::size_t compromised_leaderships = 0;

    std::printf("LEACH rotation, %u rounds, %zu nodes (0-%zu compromised, TI ~%.2f)\n\n",
                rounds, kNodes, kCompromised - 1, trust.ti(0));
    std::printf("round  heads                      drafted\n");
    for (std::uint32_t r = 0; r < rounds; ++r) {
        std::vector<cluster::Candidate> candidates;
        for (std::size_t i = 0; i < kNodes; ++i) {
            cluster::Candidate c;
            c.id = static_cast<sim::ProcessId>(i);
            c.position = {5.0 + 10.0 * static_cast<double>(i % 5),
                          5.0 + 10.0 * static_cast<double>(i / 5)};
            c.energy_fraction = batteries[i].fraction();
            c.ti = trust.ti(static_cast<core::NodeId>(i));
            candidates.push_back(c);
        }
        const auto result = election.run_round(r, candidates);

        std::printf("%4u   ", r);
        for (auto h : result.heads) {
            std::printf("%2u ", h);
            ++served[h];
            batteries[h].consume(serve_cost);
            if (h < kCompromised) ++compromised_leaderships;
        }
        std::printf("%*s%s\n", static_cast<int>(27 - 3 * result.heads.size()), "",
                    result.drafted ? "(drafted)" : "");
        for (std::size_t i = 0; i < kNodes; ++i) {
            if (served.count(static_cast<sim::ProcessId>(i)) == 0 ||
                result.affiliation.count(static_cast<sim::ProcessId>(i))) {
                batteries[i].consume(member_cost);
            }
        }
    }

    std::printf("\nleaderships served per node:\n");
    for (const auto& [id, count] : served) {
        std::printf("  node %2u: %d%s\n", id, count,
                    id < kCompromised ? "  <- compromised!" : "");
    }
    std::printf("\ncompromised nodes won %zu leaderships (TI gate at %.2f held them out)\n",
                compromised_leaderships, lp.ti_threshold);
    double min_frac = 1.0, max_frac = 0.0;
    for (auto& b : batteries) {
        min_frac = std::min(min_frac, b.fraction());
        max_frac = std::max(max_frac, b.fraction());
    }
    std::printf("battery spread after %u rounds: %.1f%% .. %.1f%%\n", rounds, 100 * min_frac,
                100 * max_frac);
    return compromised_leaderships == 0 ? 0 : 1;
}
