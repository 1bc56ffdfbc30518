// Experiments 2 and 3 (Sections 4.2-4.3): location determination on a
// 100-node field with rotating cluster heads, and the network-decay variant
// where the compromised fraction grows over time.
//
// 100 nodes on a 100x100 field (regular 10x10 lattice, matching the
// paper's "placed uniformly on a 100X100 grid"), 5 rotating CH entities,
// one base station archiving trust across leaderships. Faulty nodes are
// level 0, 1 or 2; correct nodes report with sigma 1.6/2.0, faulty with
// sigma 4.25/6.0 and drop 25% of reports (Table 2). Accuracy is the
// fraction of generated events for which the active CH declared an event
// within r_error of the true location.
#pragma once

#include <cstddef>
#include <vector>

#include "cluster/cluster_head.h"
#include "exp/scenario.h"
#include "sensor/event_generator.h"

namespace tibfit::exp {

/// Scored outcome of one location run.
struct LocationResult {
    double accuracy = 0.0;  ///< events located within r_error / events
    std::size_t events = 0;
    std::size_t detected = 0;
    std::size_t false_positives = 0;  ///< declared events matching no ground truth
    std::size_t isolated = 0;         ///< nodes diagnosed by the final trust table
    double mean_ti_correct = 1.0;
    double mean_ti_faulty = 1.0;
    std::vector<double> epoch_accuracy;  ///< accuracy per epoch_events window
    /// Differential-oracle tallies (zero unless check.mode != off):
    /// decisions cross-checked by the shadow arbiters, and how many
    /// diverged from the paper-literal reference.
    std::size_t checked_decisions = 0;
    std::size_t oracle_divergences = 0;

    /// Raw trace (populated only with LocationWorkload::keep_trace).
    std::vector<sensor::GeneratedEvent> trace_events;
    std::vector<cluster::DecisionRecord> trace_decisions;
};

/// Runs one complete location simulation, including any fault-injection
/// campaign the scenario carries (channel degradation windows, compromise
/// onsets, behaviour shifts; CH failover is binary-kind only — location
/// runs already rotate leadership). The scenario's `kind` is ignored —
/// this entry point always runs the location workload.
LocationResult run_location_experiment(const Scenario& scenario);

}  // namespace tibfit::exp
