// Figure 7 — Experiment 2, single vs. concurrent events, level-0 faulty
// nodes, TIBFIT only. Concurrent runs generate two simultaneous events per
// instant, never within r_error of each other (the Section 3.3 circle
// machinery separates and arbitrates them independently).
//
// Paper shape: tolerating concurrent events does not significantly alter
// detection accuracy.
#include <vector>

#include "exp/bench_io.h"
#include "exp/sweep.h"
#include "util/table.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_fig7", argc, argv);

    exp::Scenario base = exp::Scenario::location_defaults();
    base.location.fault_level = sensor::NodeClass::Level0;
    base.engine.policy = core::DecisionPolicy::TrustIndex;
    base.location.events = 200;
    base.seed = 20050628;
    const std::size_t runs = io.trial_runs(5);
    io.apply(base);

    const std::vector<double> pct = {0.10, 0.20, 0.30, 0.40, 0.50, 0.58};
    struct Series {
        const char* name;
        double cs, fs;
        std::size_t burst;
    };
    const Series series[] = {
        {"Lvl0 1.6-4.25 Single", 1.6, 4.25, 1},
        {"Lvl0 1.6-4.25 Concurrent", 1.6, 4.25, 2},
        {"Lvl0 2-6 Single", 2.0, 6.0, 1},
        {"Lvl0 2-6 Concurrent", 2.0, 6.0, 2},
    };

    util::Table t("Figure 7: single vs concurrent events (level 0, TIBFIT)");
    t.header({"% faulty", series[0].name, series[1].name, series[2].name, series[3].name});
    for (double p : pct) {
        std::vector<double> row{100.0 * p};
        for (const auto& s : series) {
            exp::Scenario c = base;
            c.location.pct_faulty = p;
            c.faults.correct_sigma = s.cs;
            c.faults.faulty_sigma = s.fs;
            c.location.burst = s.burst;
            row.push_back(exp::mean_accuracy(c, runs));
        }
        t.row_values(row, 3);
    }
    io.emit(t);
    exp::Scenario representative = base;
    representative.location.pct_faulty = 0.3;
    representative.faults.correct_sigma = 1.6;
    representative.faults.faulty_sigma = 4.25;
    representative.location.burst = 2;
    return io.finish(representative);
}
