// Extension bench — collusion defense (the paper's Section-7 future work:
// "make TIBFIT more robust against level 2 malicious nodes").
//
// Repeats the Figure-6 sweep (level-2 colluding adversaries) with the
// statistical collusion detector enabled: cliques of near-identical
// reports convict the colluding pairs, drain their trust and isolate them.
// The detector closes most of the gap collusion opened.
#include <vector>

#include "exp/bench_io.h"
#include "exp/sweep.h"
#include "util/table.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_ext_collusion", argc, argv);

    exp::Scenario base = exp::Scenario::location_defaults();
    base.location.fault_level = sensor::NodeClass::Level2;
    base.faults.correct_sigma = 1.6;
    base.faults.faulty_sigma = 4.25;
    base.location.events = 200;
    base.seed = 20050628;
    const std::size_t runs = io.trial_runs(5);
    io.apply(base);

    const std::vector<double> pct = {0.10, 0.20, 0.30, 0.40, 0.50, 0.58};

    util::Table t("Extension: level-2 collusion with and without the collusion detector");
    t.header({"% faulty", "TIBFIT (paper)", "TIBFIT + detector", "detector vs jittered echoes",
              "Baseline"});
    for (double p : pct) {
        exp::Scenario c = base;
        c.location.pct_faulty = p;
        exp::Scenario baseline = c;
        baseline.engine.policy = core::DecisionPolicy::MajorityVote;
        const double paper = exp::mean_accuracy(c, runs);
        c.engine.collusion_defense = true;
        const double detector = exp::mean_accuracy(c, runs);
        // The arms race: adaptive colluders jitter their echoes past the
        // detector's epsilon, restoring (most of) the attack.
        c.faults.collusion_jitter = 0.5;
        const double jittered = exp::mean_accuracy(c, runs);
        t.row_values({100.0 * p, paper, detector, jittered, exp::mean_accuracy(baseline, runs)},
                     3);
    }
    io.emit(t);
    exp::Scenario representative = base;
    representative.location.pct_faulty = 0.3;
    representative.engine.collusion_defense = true;
    return io.finish(representative);
}
