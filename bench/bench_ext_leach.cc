// Extension bench — self-organized clustering vs the paper's dedicated-CH
// evaluation setup.
//
// The paper evaluates with standalone CH entities ("The CHs and event
// generator are two other entities present in the network"); the system
// model (Section 2) actually prescribes LEACH-elected heads drawn from the
// sensors. This bench runs the same level-0 workload both ways. The
// self-organized network pays a price at cluster boundaries (an event's
// neighbours may split across two heads, halving each head's reporter
// set), so its curve sits a little below the dedicated-CH harness while
// preserving the TIBFIT-over-baseline ordering.
#include <vector>

#include "cluster/deployment.h"
#include "exp/bench_io.h"
#include "exp/sweep.h"
#include "par/trial_runner.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace tibfit;

double run_self_organized(double pct_faulty, core::DecisionPolicy policy,
                          std::uint64_t seed) {
    sim::Simulator sim;
    cluster::DeploymentConfig cfg;
    cfg.round_duration = 100.0;
    cfg.leach.ch_fraction = 0.08;
    cfg.engine.policy = policy;

    std::vector<util::Vec2> positions;
    for (int i = 0; i < 100; ++i) {
        positions.push_back({5.0 + 10.0 * (i % 10), 5.0 + 10.0 * (i / 10)});
    }
    sensor::FaultParams fp;
    fp.correct_sigma = 1.6;
    fp.faulty_sigma = 4.25;
    fp.faulty_drop_rate = 0.25;
    const auto n_faulty =
        static_cast<std::size_t>(pct_faulty * static_cast<double>(positions.size()) + 0.5);
    // Spread the compromised ids across the lattice (stride pattern) so no
    // single cluster is fully compromised by construction.
    std::vector<std::unique_ptr<sensor::FaultBehavior>> behaviors(positions.size());
    std::size_t placed = 0;
    for (std::size_t i = 0; i < positions.size() && placed < n_faulty; i += 2) {
        behaviors[i] = std::make_unique<sensor::Level0Fault>(fp, false);
        ++placed;
    }
    for (std::size_t i = 1; i < positions.size() && placed < n_faulty; i += 2) {
        behaviors[i] = std::make_unique<sensor::Level0Fault>(fp, false);
        ++placed;
    }
    for (auto& b : behaviors) {
        if (!b) b = std::make_unique<sensor::CorrectBehavior>(fp);
    }

    cluster::Deployment net(sim, util::Rng(seed), cfg, positions, std::move(behaviors));
    const std::size_t events = 200;
    net.generator().schedule_events(events, 10.0, 5.0);
    net.start(10.0 * static_cast<double>(events) + 10.0);
    sim.run();

    std::size_t detected = 0;
    for (const auto& ev : net.generator().history()) {
        for (const auto& dec : net.decisions()) {
            if (!dec.event_declared || !dec.has_location) continue;
            if (dec.time < ev.time || dec.time > ev.time + 5.0) continue;
            if (util::distance(dec.location, ev.location) <= 5.0) {
                ++detected;
                break;
            }
        }
    }
    return static_cast<double>(detected) /
           static_cast<double>(net.generator().history().size());
}

double mean_self_organized(double pct, core::DecisionPolicy policy, std::size_t runs) {
    // Trial r draws derive_trial_seed(seed, r) and the sum runs in trial
    // order, so the mean is bit-identical at any --jobs width.
    std::vector<double> acc(runs, 0.0);
    par::run_trials(runs, [&](std::size_t r) {
        acc[r] = run_self_organized(pct, policy, util::derive_trial_seed(20050628, r));
    });
    double sum = 0.0;
    for (double a : acc) sum += a;
    return sum / static_cast<double>(runs);
}

}  // namespace

int main(int argc, char** argv) {
    tibfit::exp::BenchIo io("bench_ext_leach", argc, argv);
    const std::vector<double> pct = {0.10, 0.30, 0.50};
    const std::size_t runs = io.trial_runs(3);

    tibfit::exp::Scenario dedicated = tibfit::exp::Scenario::location_defaults();
    dedicated.location.events = 200;
    dedicated.seed = 20050628;
    io.apply(dedicated);

    tibfit::util::Table t(
        "Extension: LEACH self-organized heads vs dedicated CH entities (level 0)");
    t.header({"% faulty", "dedicated TIBFIT", "self-organized TIBFIT",
              "self-organized baseline"});
    for (double p : pct) {
        std::vector<double> row{100.0 * p};
        {
            auto c = dedicated;
            c.location.pct_faulty = p;
            row.push_back(tibfit::exp::mean_accuracy(c, runs));
        }
        row.push_back(mean_self_organized(p, tibfit::core::DecisionPolicy::TrustIndex, runs));
        row.push_back(mean_self_organized(p, tibfit::core::DecisionPolicy::MajorityVote, runs));
        t.row_values(row, 3);
    }
    io.emit(t);
    auto representative = dedicated;
    representative.location.pct_faulty = 0.3;
    return io.finish(representative);
}
