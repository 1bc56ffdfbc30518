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

#include "exp/bench_io.h"
#include "exp/deployment.h"
#include "exp/sweep.h"
#include "par/trial_runner.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace tibfit;

/// Detection rate of one LEACH-elected run of `base`'s location workload
/// on a 10x10 lattice, `pct_faulty` of it level 0.
double run_self_organized(exp::Scenario s, double pct_faulty, core::DecisionPolicy policy) {
    s.engine.policy = policy;
    // The deployment's sensors keep FaultParams' 1% natural error rate,
    // which the location defaults zero.
    s.faults.natural_error_rate = 0.01;
    exp::DeploymentConfig cfg;
    cfg.leach.ch_fraction = 0.08;

    std::vector<util::Vec2> positions;
    for (int i = 0; i < 100; ++i) {
        positions.push_back({5.0 + 10.0 * (i % 10), 5.0 + 10.0 * (i / 10)});
    }
    // Spread the compromised ids across the lattice (even ids first, then
    // odd) so no single cluster is fully compromised by construction.
    std::size_t to_place =
        static_cast<std::size_t>(pct_faulty * static_cast<double>(positions.size()) + 0.5);
    std::vector<bool> faulty(positions.size(), false);
    for (std::size_t first : {0, 1}) {
        for (std::size_t i = first; i < positions.size() && to_place > 0; i += 2, --to_place) {
            faulty[i] = true;
        }
    }

    exp::Deployment net(s, cfg, std::move(positions), std::move(faulty));
    const std::size_t events = s.location.events;
    const double interval = s.location.event_interval;
    net.generator().schedule_events(events, interval, 5.0);
    net.run(interval * static_cast<double>(events) + interval);
    return static_cast<double>(net.detected_events()) /
           static_cast<double>(net.generator().history().size());
}

double mean_self_organized(const exp::Scenario& base, double pct, core::DecisionPolicy policy,
                           std::size_t runs) {
    // Trial r draws derive_trial_seed(seed, r) and the sum runs in trial
    // order, so the mean is bit-identical at any --jobs width.
    std::vector<double> acc(runs, 0.0);
    par::run_trials(runs, [&](std::size_t r) {
        exp::Scenario s = base;
        s.seed = util::derive_trial_seed(base.seed, r);
        acc[r] = run_self_organized(s, pct, policy);
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
        row.push_back(
            mean_self_organized(dedicated, p, tibfit::core::DecisionPolicy::TrustIndex, runs));
        row.push_back(
            mean_self_organized(dedicated, p, tibfit::core::DecisionPolicy::MajorityVote, runs));
        t.row_values(row, 3);
    }
    io.emit(t);
    auto representative = dedicated;
    representative.location.pct_faulty = 0.3;
    return io.finish(representative);
}
