// Figure 5 — Experiment 2, location determination, level-1 (smart
// independent) faulty nodes. Same sweep as Figure 4, but the faulty nodes
// watch their own trust index: they behave correctly once it falls to 0.5
// and resume lying when it recovers to 0.8.
//
// Paper shape: TIBFIT stays above ~90% even at 58% compromised, because
// the hysteresis forces malicious nodes to spend most of their time
// behaving; the baseline falls away from 40% on.
#include "location_figures.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_fig5", argc, argv);

    exp::Scenario base = exp::Scenario::location_defaults();
    base.location.fault_level = sensor::NodeClass::Level1;
    base.location.events = 200;
    base.seed = 20050628;
    return bench::level_sweep_figure(
        io, base, "Lvl1",
        "Figure 5: location model accuracy vs % faulty (level 1, TI hysteresis 0.5/0.8)");
}
