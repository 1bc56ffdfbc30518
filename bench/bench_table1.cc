// Table 1 — the Experiment-1 parameter set, printed from the Scenario the
// figure benches execute (so the table can never drift from the code),
// plus a single verification run per parameter corner.
#include "exp/bench_io.h"
#include "exp/binary_experiment.h"
#include "util/table.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_table1", argc, argv);

    exp::Scenario c = exp::Scenario::binary_defaults();
    c.binary.n_nodes = 10;
    c.binary.events = 100;
    c.engine.trust.lambda = 0.1;
    c.faults.missed_alarm_rate = 0.5;
    c.channel.drop_probability = 0.0;
    io.apply(c);

    util::Table t("Table 1: parameters for Experiment 1 (binary event model)");
    t.header({"parameter", "value"});
    t.row({"Type of event", "Binary event model"});
    t.row({"Independent variable", "percentage faulty nodes, 40%-90%"});
    t.row({"Correct nodes NER", "0%, 1%, 5%"});
    t.row({"Faulty nodes: missed alarms",
           util::Table::num(100 * c.faults.missed_alarm_rate, 0) + "%"});
    t.row({"Faulty nodes: false alarms", "0%, 10%, 75%"});
    t.row({"Size of network", std::to_string(c.binary.n_nodes) + " sensing nodes, 1 CH"});
    t.row({"Number of event neighbours", std::to_string(c.binary.n_nodes)});
    t.row({"Events per simulation", std::to_string(c.binary.events)});
    t.row({"lambda", util::Table::num(c.engine.trust.lambda, 2)});
    t.row({"Fault rate f_r", "same as NER"});
    io.emit(t);

    // Sanity row: one run at each NER corner proves the config executes.
    util::Table v("Table 1 verification runs (50% faulty, seed 1)");
    v.header({"NER", "accuracy", "detection", "mean TI correct", "mean TI faulty"});
    for (double ner : {0.0, 0.01, 0.05}) {
        exp::Scenario r = c;
        r.binary.pct_faulty = 0.5;
        r.faults.natural_error_rate = ner;
        r.seed = 1;
        const auto res = exp::run_binary_experiment(r);
        v.row_values({ner, res.accuracy, res.detection_rate, res.mean_ti_correct,
                      res.mean_ti_faulty},
                     3);
    }
    io.emit(v);
    exp::Scenario representative = c;
    representative.binary.pct_faulty = 0.5;
    representative.faults.natural_error_rate = 0.01;
    representative.seed = 1;
    return io.finish(representative);
}
