// Shared sweep drivers for the benches: run an experiment across a
// parameter range, averaging over seeds, and collect paper-style series.
//
// Replications fan out across threads through par::run_trials — the
// process-wide par::jobs() setting (bench/CLI flag --jobs, env
// TIBFIT_JOBS) picks the width. Trial r always draws the seed
// util::derive_trial_seed(scenario.seed, r) and results reduce in trial
// order, so every mean and series is bit-identical at any thread count;
// an attached recorder receives the per-trial registries/traces merged in
// trial order (docs/PARALLELISM.md).
//
// The drivers take an exp::Scenario and dispatch on its kind.
#pragma once

#include <cstdint>
#include <vector>

#include "exp/binary_experiment.h"
#include "exp/location_experiment.h"
#include "exp/scenario.h"

namespace tibfit::exp {

/// Mean accuracy of `runs` replications of `scenario` (binary or location
/// by kind) differing only in seed.
double mean_accuracy(Scenario scenario, std::size_t runs);

/// Mean per-epoch accuracy series over `runs` seeds (location kind).
/// Series are truncated to the shortest run, which only differs if an
/// experiment aborts — when that happens a warning is logged and, with a
/// recorder attached, the exp.sweep.truncated_runs counter records how
/// many runs fell short.
std::vector<double> mean_epoch_accuracy(Scenario scenario, std::size_t runs);

}  // namespace tibfit::exp
