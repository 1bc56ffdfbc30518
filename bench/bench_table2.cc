// Table 2 — the Experiment-2 parameter set, printed from the Scenario the
// figure benches execute, plus the Rayleigh translation of the report
// sigmas into "probability a report lands more than r_error off" (the
// error percentages the paper derives from the joint Gaussian).
#include "analysis/rayleigh.h"
#include "exp/bench_io.h"
#include "exp/scenario.h"
#include "util/table.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_table2", argc, argv);

    // The location defaults are the Table-2 values.
    exp::Scenario c = exp::Scenario::location_defaults();
    io.apply(c);

    util::Table t("Table 2: parameters for Experiment 2 (location determination)");
    t.header({"parameter", "value"});
    t.row({"Type of event", "Location determination, concurrent or single events"});
    t.row({"Independent variable", "percentage faulty nodes, 10%-58%"});
    t.row({"Correct node report std dev", "1.6 or 2.0"});
    t.row({"Faulty node report std dev", "4.25 or 6.0"});
    t.row({"Faulty node packet drop",
           util::Table::num(100 * c.faults.faulty_drop_rate, 0) + "%"});
    t.row({"Size of network",
           std::to_string(c.location.n_nodes) + " sensing nodes, " +
               std::to_string(c.location.n_ch) + " CH"});
    t.row({"Number of event neighbours",
           "variable on location (r_s = " + util::Table::num(c.deployment.sensing_radius, 0) +
               ")"});
    t.row({"r_error", util::Table::num(c.engine.r_error, 0)});
    t.row({"lambda", util::Table::num(c.engine.trust.lambda, 2)});
    t.row({"Fault rate f_r", util::Table::num(c.engine.trust.fault_rate, 2) +
                                 " (differs from NER to absorb channel losses)"});
    t.row({"Smart-node TI hysteresis", "lower 0.5 / upper 0.8"});
    io.emit(t);

    util::Table e("Table 2 derived error rates: P(report > r_error off), Rayleigh");
    e.header({"sigma", "P(error > 5)"});
    for (double sigma : {1.6, 2.0, 4.25, 6.0}) {
        e.row_values({sigma, analysis::rayleigh_exceed(c.engine.r_error, sigma)}, 4);
    }
    io.emit(e);
    exp::Scenario representative = c;
    representative.location.pct_faulty = 0.3;
    representative.location.events = 50;
    representative.seed = 1;
    return io.finish(representative);
}
