// Figure 2 — Experiment 1, binary event model, missed alarms only.
// Accuracy vs. percentage of level-0 faulty nodes (40%..90%) for correct
// nodes with NER 0%, 1% and 5%. Faulty nodes miss 50% of events and raise
// no false alarms. 10 nodes, 1 CH, 100 events, lambda = 0.1, f_r = NER.
//
// Paper shape to reproduce: accuracy stays above ~85% through 70% faulty,
// then falls off at 80-90%.
#include <vector>

#include "exp/bench_io.h"
#include "exp/sweep.h"
#include "util/table.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_fig2", argc, argv);
    io.describe("Figure 2: binary-model accuracy vs % faulty, missed alarms only");

    exp::Scenario base = exp::Scenario::binary_defaults();
    base.faults.missed_alarm_rate = 0.5;
    base.faults.false_alarm_rate = 0.0;
    // Exp 1 isolates protocol behaviour from channel loss.
    base.channel.drop_probability = 0.0;
    base.seed = 20050628;  // DSN 2005
    const std::size_t runs = io.trial_runs(30);
    io.apply(base);

    const std::vector<double> pct = {0.40, 0.50, 0.60, 0.70, 0.80, 0.90};
    const std::vector<double> ners = {0.00, 0.01, 0.05};

    util::Table t("Figure 2: binary model accuracy vs % faulty (missed alarms only)");
    t.header({"% faulty", "NER 0% TIBFIT", "NER 1% TIBFIT", "NER 5% TIBFIT", "NER 1% Baseline"});
    for (double p : pct) {
        std::vector<double> row{100.0 * p};
        for (double ner : ners) {
            exp::Scenario s = base;
            s.binary.pct_faulty = p;
            s.faults.natural_error_rate = ner;
            row.push_back(exp::mean_accuracy(s, runs));
        }
        exp::Scenario b = base;
        b.binary.pct_faulty = p;
        b.faults.natural_error_rate = 0.01;
        b.engine.policy = core::DecisionPolicy::MajorityVote;
        row.push_back(exp::mean_accuracy(b, runs));
        t.row_values(row, 3);
    }
    io.emit(t);
    exp::Scenario representative = base;
    representative.binary.pct_faulty = 0.5;
    representative.faults.natural_error_rate = 0.01;
    return io.finish(representative);
}
