#include "exp/sweep.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "obs/names.h"
#include "obs/recorder.h"
#include "par/trial_runner.h"
#include "util/log.h"
#include "util/rng.h"

namespace tibfit::exp {

namespace {

// Fans the `runs` seeded replications of `run(scenario)` out across the
// process-wide par::jobs() threads and returns the per-trial results in
// trial order. Trial r is a pure function of (scenario, r): it draws the
// seed util::derive_trial_seed(scenario.seed, r) and, when the caller
// attached a recorder, gets a private one whose registry/trace are merged
// back in trial order afterwards — so the aggregate is bit-identical
// regardless of the thread count (docs/PARALLELISM.md).
template <typename Result>
std::vector<Result> run_replications(const Scenario& scenario, std::size_t runs,
                                     Result (*run)(const Scenario&)) {
    std::vector<Result> results(runs);
    obs::Recorder* parent = scenario.recorder;
    std::vector<std::unique_ptr<obs::Recorder>> recorders(parent ? runs : 0);
    par::run_trials(runs, [&](std::size_t r) {
        Scenario c = scenario;
        c.seed = util::derive_trial_seed(scenario.seed, r);
        if (parent) {
            recorders[r] = std::make_unique<obs::Recorder>();
            recorders[r]->trace().set_enabled(parent->trace().enabled());
            c.recorder = recorders[r].get();
        }
        results[r] = run(c);
    });
    if (parent) {
        for (const auto& rec : recorders) {
            parent->metrics().merge(rec->metrics());
            parent->trace().append_all(rec->trace());
        }
    }
    return results;
}

}  // namespace

double mean_accuracy(Scenario scenario, std::size_t runs) {
    double sum = 0.0;
    if (scenario.kind == Scenario::Kind::Binary) {
        for (const auto& r : run_replications(scenario, runs, run_binary_experiment)) {
            sum += r.accuracy;
        }
    } else {
        for (const auto& r : run_replications(scenario, runs, run_location_experiment)) {
            sum += r.accuracy;
        }
    }
    return runs ? sum / static_cast<double>(runs) : 0.0;
}

std::vector<double> mean_epoch_accuracy(Scenario scenario, std::size_t runs) {
    const auto results = run_replications(scenario, runs, run_location_experiment);
    if (runs == 0) return {};

    std::size_t min_len = results.front().epoch_accuracy.size();
    std::size_t max_len = min_len;
    for (const auto& r : results) {
        min_len = std::min(min_len, r.epoch_accuracy.size());
        max_len = std::max(max_len, r.epoch_accuracy.size());
    }
    if (min_len != max_len) {
        // Identical scenarios normally produce identical epoch counts; a
        // shorter series means a run aborted early. Truncating is still the
        // only sound aggregation, but it must not happen silently — every
        // curve downstream loses its tail.
        std::size_t truncated = 0;
        for (const auto& r : results) truncated += r.epoch_accuracy.size() < max_len ? 1 : 0;
        util::log_warn() << "mean_epoch_accuracy: " << truncated << " of " << runs
                         << " runs produced fewer epochs than the longest (" << min_len
                         << " vs " << max_len << "); truncating every curve to " << min_len
                         << " epochs";
        if (scenario.recorder) {
            scenario.recorder->metrics()
                .counter(obs::metric::kSweepTruncatedRuns)
                .inc(truncated);
        }
    }

    std::vector<double> sum(min_len, 0.0);
    for (const auto& r : results) {
        for (std::size_t i = 0; i < min_len; ++i) sum[i] += r.epoch_accuracy[i];
    }
    for (auto& s : sum) s /= static_cast<double>(runs);
    return sum;
}

}  // namespace tibfit::exp
