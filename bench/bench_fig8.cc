// Figure 8 — Experiment 3, decay of the network, sigma pairing 4.25.
// The run starts with 5% of the network compromised by level-0 nodes and
// compromises 5% more every 50 events until 75%. Accuracy is reported per
// 50-event epoch for TIBFIT and the baseline, with correct-node sigma 1.6
// and 2.0 against faulty sigma 4.25.
//
// Paper shape: TIBFIT outlives the baseline at equal sigmas (compare only
// same-sigma lines) and holds near 80% accuracy at 60% compromised.
#include "location_figures.h"

int main(int argc, char** argv) {
    tibfit::exp::BenchIo io("bench_fig8", argc, argv);
    return tibfit::bench::decay_figure(
        io, 4.25, "4.25",
        "Figure 8: network decay, accuracy per 50-event epoch (faulty sigma 4.25)");
}
