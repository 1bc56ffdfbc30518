// Figure 6 — Experiment 2, location determination, level-2 (smart
// colluding) faulty nodes. Same sweep as Figures 4-5, but the faulty nodes
// coordinate over an undetectable side channel: for every event they all
// report one shared fabricated location, or all stay silent, still under
// the 0.5/0.8 trust hysteresis.
//
// Paper shape: collusion hurts both models badly; TIBFIT still outperforms
// the baseline but cannot fully tolerate coordinated lies.
#include "location_figures.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_fig6", argc, argv);

    exp::Scenario base = exp::Scenario::location_defaults();
    base.location.fault_level = sensor::NodeClass::Level2;
    base.location.events = 200;
    base.seed = 20050628;
    return bench::level_sweep_figure(
        io, base, "Lvl2",
        "Figure 6: location model accuracy vs % faulty (level 2, colluding)");
}
