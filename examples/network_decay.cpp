// Network decay — the paper's Experiment-3 story as a runnable scenario:
// a healthy 100-node deployment is progressively compromised (5% more of
// the network every 50 events) while the cluster heads keep serving event
// queries. The example prints the accuracy of TIBFIT vs. plain majority
// voting per epoch, showing the trust index carrying the network well past
// the 50% compromise point where voting collapses, plus the diagnosis
// (isolation) of compromised nodes.
//
// Usage: ./network_decay [epoch_events=50] [final=75] [seed=11]
#include <cstdio>

#include "exp/location_experiment.h"
#include "knobs.h"

int main(int argc, char** argv) {
    using namespace tibfit;

    const examples::Knobs knobs("network_decay", argc, argv, {"epoch_events", "final", "seed"});

    exp::Scenario cfg = exp::Scenario::location_defaults();
    exp::LocationWorkload& wl = cfg.location;
    wl.decay = true;
    wl.decay_initial = 0.05;
    wl.decay_step = 0.05;
    wl.decay_final = static_cast<double>(knobs.count("final", 75)) / 100.0;
    wl.decay_epoch_events = knobs.count("epoch_events", 50);
    wl.epoch_events = wl.decay_epoch_events;
    cfg.seed = knobs.count("seed", 11);
    knobs.validate(cfg);

    std::printf("Network decay: +5%% of the network compromised every %zu events, up to %.0f%%\n\n",
                wl.decay_epoch_events, 100.0 * wl.decay_final);

    const auto tibfit = run_location_experiment(cfg);
    auto base_cfg = cfg;
    base_cfg.engine.policy = core::DecisionPolicy::MajorityVote;
    const auto baseline = run_location_experiment(base_cfg);

    std::printf("epoch  %%compromised   TIBFIT   majority\n");
    for (std::size_t e = 0; e < tibfit.epoch_accuracy.size(); ++e) {
        const double pct = 100.0 * (wl.decay_initial + wl.decay_step * static_cast<double>(e));
        const double b = e < baseline.epoch_accuracy.size() ? baseline.epoch_accuracy[e] : 0.0;
        std::printf("%4zu   %6.0f%%       %6.1f%%   %6.1f%%\n", e + 1, pct,
                    100.0 * tibfit.epoch_accuracy[e], 100.0 * b);
    }
    std::printf("\noverall: TIBFIT %.1f%% vs majority %.1f%%\n", 100.0 * tibfit.accuracy,
                100.0 * baseline.accuracy);
    std::printf("TIBFIT diagnosed and isolated %zu compromised nodes "
                "(trust fell below the removal threshold)\n",
                tibfit.isolated);
    return tibfit.accuracy >= baseline.accuracy ? 0 : 1;
}
