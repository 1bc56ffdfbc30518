// Experiment 1 (Section 4.1): binary event model.
//
// A cluster of n sensing nodes plus one CH. Every node is an event
// neighbour of every event. Level-0 faulty nodes generate missed alarms at
// 50% and false alarms at a configurable rate; correct nodes miss at their
// NER. The CH adjudicates each report window with TIBFIT or the baseline
// majority vote. Accuracy is scored over all decision instances: real
// events (the CH must declare) and false-alarm windows (the CH must not).
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/cluster_head.h"
#include "exp/scenario.h"

namespace tibfit::exp {

/// Scored outcome of one binary run.
struct BinaryResult {
    double accuracy = 0.0;          ///< correct decisions / all instances
    double detection_rate = 0.0;    ///< events declared / events
    std::size_t events = 0;
    std::size_t detected = 0;
    std::size_t false_alarm_windows = 0;  ///< quiet windows that drew reports
    std::size_t phantoms_declared = 0;    ///< false-alarm windows wrongly declared
    double mean_ti_correct = 1.0;   ///< final mean TI of correct nodes
    double mean_ti_faulty = 1.0;    ///< final mean TI of faulty nodes
    std::size_t ch_overrides = 0;   ///< decisions where shadows outvoted the CH
    /// Differential-oracle tallies (zero unless check.mode != off): how
    /// many decisions the shadow arbiter cross-checked, and how many
    /// diverged from the paper-literal reference.
    std::size_t checked_decisions = 0;
    std::size_t oracle_divergences = 0;
    /// The CH decision log (only filled when Scenario::keep_decisions;
    /// with shadows these are the post-override decisions).
    std::vector<cluster::DecisionRecord> decisions;
};

/// Runs one complete binary simulation (network, channel, CH, generator),
/// including any fault-injection campaign the scenario carries. The
/// scenario's `kind` is ignored — this entry point always runs the binary
/// workload.
BinaryResult run_binary_experiment(const Scenario& scenario);

}  // namespace tibfit::exp
