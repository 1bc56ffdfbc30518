// Forest-fire watch — the paper's motivating binary-event scenario.
//
// Ten temperature sensors guard a forest block, reporting to one cluster
// head. Six of them have been compromised — an outright majority: they
// suppress half the real fire alarms and fabricate phantom alarms 30% of
// the time. The example runs a season of fire events through the full
// simulated network (channel, reports, T_out windows) and shows how
// TIBFIT's trust table separates the liars from the honest sensors while
// keeping detection accurate, then diagnoses the compromised sensors by
// their trust index.
//
// Usage: ./forest_fire [events=100] [faulty=6] [seed=7]
#include <cstdio>

#include "exp/binary_experiment.h"
#include "knobs.h"

int main(int argc, char** argv) {
    using namespace tibfit;

    const examples::Knobs knobs("forest_fire", argc, argv, {"events", "faulty", "seed"});

    exp::Scenario cfg = exp::Scenario::binary_defaults();
    cfg.binary.n_nodes = 10;
    cfg.binary.events = knobs.count("events", 100);
    cfg.binary.pct_faulty = static_cast<double>(knobs.count("faulty", 6)) / 10.0;
    cfg.faults.natural_error_rate = 0.01;  // honest sensors still glitch occasionally
    cfg.faults.missed_alarm_rate = 0.5;    // compromised sensors suppress half the fires
    cfg.faults.false_alarm_rate = 0.3;     // ... and cry wolf
    cfg.engine.trust.lambda = 0.1;
    cfg.engine.trust.removal_ti = 0.05;    // diagnose and ignore hopeless sensors
    cfg.channel.drop_probability = 0.01;
    cfg.seed = knobs.count("seed", 7);
    knobs.validate(cfg);

    std::printf("Forest-fire watch: %zu fire events, %d of 10 sensors compromised\n\n",
                cfg.binary.events, static_cast<int>(cfg.binary.pct_faulty * 10));

    const auto tibfit = exp::run_binary_experiment(cfg);
    auto baseline_cfg = cfg;
    baseline_cfg.engine.policy = core::DecisionPolicy::MajorityVote;
    const auto baseline = exp::run_binary_experiment(baseline_cfg);

    std::printf("                       TIBFIT     majority vote\n");
    std::printf("fires detected         %3zu/%zu      %3zu/%zu\n", tibfit.detected,
                tibfit.events, baseline.detected, baseline.events);
    std::printf("phantom alarms raised  %3zu/%zu      %3zu/%zu\n", tibfit.phantoms_declared,
                tibfit.false_alarm_windows, baseline.phantoms_declared,
                baseline.false_alarm_windows);
    std::printf("overall accuracy       %5.1f%%     %5.1f%%\n\n", 100.0 * tibfit.accuracy,
                100.0 * baseline.accuracy);
    std::printf("final mean trust index: honest sensors %.3f, compromised %.3f\n",
                tibfit.mean_ti_correct, tibfit.mean_ti_faulty);
    std::printf("=> the cluster head now weighs a compromised sensor's vote at ~%.0f%%\n",
                100.0 * tibfit.mean_ti_faulty);
    return 0;
}
