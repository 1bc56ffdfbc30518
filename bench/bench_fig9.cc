// Figure 9 — Experiment 3, decay of the network, sigma pairing 6.0.
// Same protocol as Figure 8 (5% -> 75% compromised, +5% per 50 events)
// with the noisier faulty sigma of 6.0.
#include "location_figures.h"

int main(int argc, char** argv) {
    tibfit::exp::BenchIo io("bench_fig9", argc, argv);
    return tibfit::bench::decay_figure(
        io, 6.0, "6",
        "Figure 9: network decay, accuracy per 50-event epoch (faulty sigma 6.0)");
}
