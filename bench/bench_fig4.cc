// Figure 4 — Experiment 2, location determination, level-0 faulty nodes.
// Accuracy vs. percentage compromised (10%..58%) for TIBFIT and the
// baseline, with the paper's two sigma pairings (legend "Lvl 0 W-Z"):
// correct sigma 1.6 / faulty 4.25 and correct 2.0 / faulty 6.0.
// 100 nodes on a 100x100 grid, r_error = 5, lambda = 0.25, f_r = 0.1,
// faulty nodes drop 25% of reports.
//
// Paper shape: models track each other below 40% compromised; past 40%
// TIBFIT wins by 7-20 points and holds near 80% at 58% compromised.
#include "location_figures.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_fig4", argc, argv);
    io.describe("Figure 4: location-model accuracy vs % faulty, level-0 nodes");

    exp::Scenario base = exp::Scenario::location_defaults();
    base.location.fault_level = sensor::NodeClass::Level0;
    base.seed = 20050628;
    return bench::level_sweep_figure(io, base, "Lvl0",
                                     "Figure 4: location model accuracy vs % faulty (level 0)");
}
