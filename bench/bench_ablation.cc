// Ablations of the deliberate design interpretations documented in
// DESIGN.md §5 — each knob the paper under-specifies, toggled on a fixed
// workload so reviewers can see how much it matters:
//
//   1. node isolation (removal_ti) on vs. off;
//   2. lambda sensitivity (0.1 / 0.25 / 0.5);
//   3. f_r sensitivity (0.05 / 0.1 / 0.2);
//   4. grid vs. random node placement;
//   5. CH rotation period (no rotation / 20 / 5 events).
#include <vector>

#include "exp/bench_io.h"
#include "exp/sweep.h"
#include "util/table.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_ablation", argc, argv);

    exp::Scenario base = exp::Scenario::location_defaults();
    base.location.fault_level = sensor::NodeClass::Level0;
    base.location.pct_faulty = 0.5;
    base.location.events = 200;
    base.seed = 20050628;
    const std::size_t runs = io.trial_runs(5);
    io.apply(base);

    util::Table t("Ablations (level 0, 50% faulty, 200 events, accuracy averaged over 5 seeds)");
    t.header({"variant", "accuracy"});

    {
        exp::Scenario c = base;
        t.row({"baseline config (isolation on, lambda 0.25, f_r 0.1, grid, rot 20)",
               util::Table::num(exp::mean_accuracy(c, runs), 3)});
    }
    {
        exp::Scenario c = base;
        c.engine.trust.removal_ti = 0.0;
        t.row({"isolation off", util::Table::num(exp::mean_accuracy(c, runs), 3)});
    }
    for (double lambda : {0.1, 0.5}) {
        exp::Scenario c = base;
        c.engine.trust.lambda = lambda;
        t.row({"lambda = " + util::Table::num(lambda, 2),
               util::Table::num(exp::mean_accuracy(c, runs), 3)});
    }
    for (double fr : {0.05, 0.2}) {
        exp::Scenario c = base;
        c.engine.trust.fault_rate = fr;
        t.row({"f_r = " + util::Table::num(fr, 2),
               util::Table::num(exp::mean_accuracy(c, runs), 3)});
    }
    {
        exp::Scenario c = base;
        c.location.grid_layout = false;
        t.row({"random placement", util::Table::num(exp::mean_accuracy(c, runs), 3)});
    }
    {
        exp::Scenario c = base;
        c.location.rotation_period = 0;  // single CH for the whole run
        t.row({"no CH rotation", util::Table::num(exp::mean_accuracy(c, runs), 3)});
    }
    {
        exp::Scenario c = base;
        c.location.rotation_period = 5;
        t.row({"CH rotation every 5 events", util::Table::num(exp::mean_accuracy(c, runs), 3)});
    }
    {
        exp::Scenario c = base;
        c.engine.trust_weighted_location = true;
        t.row({"trust-weighted location estimate",
               util::Table::num(exp::mean_accuracy(c, runs), 3)});
    }
    {
        // The substrate matters: with a contending medium and no MAC the
        // same-instant reports of every event annihilate each other;
        // CSMA-like random access restores the protocol.
        exp::Scenario c = base;
        c.channel.airtime = 2e-4;
        const double no_mac = exp::mean_accuracy(c, runs);
        c.location.tx_jitter = 0.05;
        const double with_mac = exp::mean_accuracy(c, runs);
        t.row({"MAC collisions on (airtime 0.2 ms), no random access",
               util::Table::num(no_mac, 3)});
        t.row({"MAC collisions on + 50 ms random-access jitter",
               util::Table::num(with_mac, 3)});
    }
    {
        exp::Scenario c = base;
        c.location.fault_level = sensor::NodeClass::Level2;
        const double off = exp::mean_accuracy(c, runs);
        c.engine.trust_weighted_location = true;
        const double on = exp::mean_accuracy(c, runs);
        t.row({"level 2: plain cg -> trust-weighted cg",
               util::Table::num(off, 3) + " -> " + util::Table::num(on, 3)});
    }
    io.emit(t);
    return io.finish(base);
}
