// The location-model figure sweeps, shared by the benches that differ only
// in the adversary level (Figures 4-6) or the faulty sigma (Figures 8-9).
// Each function emits its table and returns the bench's exit code from
// BenchIo::finish, whose artifact records the representative scenario.
#pragma once

#include <string>
#include <vector>

#include "exp/bench_io.h"
#include "exp/sweep.h"
#include "util/table.h"

namespace tibfit::bench {

struct SigmaSeries {
    std::string name;
    double correct_sigma;
    double faulty_sigma;
    core::DecisionPolicy policy;
};

/// Figures 4-6: accuracy vs % faulty (10%..58%) for one adversary level,
/// the four series "Lvl<level> 1.6-4.25 / 2-6 TIBFIT / Baseline". The
/// representative run is 30% faulty at sigma 1.6 / 4.25.
inline int level_sweep_figure(exp::BenchIo& io, exp::Scenario base,
                              const std::string& level_label, const std::string& title) {
    const std::size_t runs = io.trial_runs(5);
    io.apply(base);
    const std::vector<double> pct = {0.10, 0.20, 0.30, 0.40, 0.50, 0.58};
    const SigmaSeries series[] = {
        {level_label + " 1.6-4.25 TIBFIT", 1.6, 4.25, core::DecisionPolicy::TrustIndex},
        {level_label + " 1.6-4.25 Baseline", 1.6, 4.25, core::DecisionPolicy::MajorityVote},
        {level_label + " 2-6 TIBFIT", 2.0, 6.0, core::DecisionPolicy::TrustIndex},
        {level_label + " 2-6 Baseline", 2.0, 6.0, core::DecisionPolicy::MajorityVote},
    };

    util::Table t(title);
    t.header({"% faulty", series[0].name, series[1].name, series[2].name, series[3].name});
    for (double p : pct) {
        std::vector<double> row{100.0 * p};
        for (const auto& s : series) {
            exp::Scenario c = base;
            c.location.pct_faulty = p;
            c.faults.correct_sigma = s.correct_sigma;
            c.faults.faulty_sigma = s.faulty_sigma;
            c.engine.policy = s.policy;
            row.push_back(exp::mean_accuracy(c, runs));
        }
        t.row_values(row, 3);
    }
    io.emit(t);
    exp::Scenario representative = base;
    representative.location.pct_faulty = 0.3;
    representative.faults.correct_sigma = 1.6;
    representative.faults.faulty_sigma = 4.25;
    return io.finish(representative);
}

/// Figures 8-9: per-epoch accuracy of a decaying network (level 0, 5% to
/// 75% compromised, +5% every 50 events) for TIBFIT and the baseline at
/// correct sigma 1.6 and 2.0 against `faulty_sigma` (labelled
/// `faulty_label` in the series names).
inline int decay_figure(exp::BenchIo& io, double faulty_sigma, const std::string& faulty_label,
                        const std::string& title) {
    exp::Scenario base = exp::Scenario::location_defaults();
    base.location.fault_level = sensor::NodeClass::Level0;
    base.location.decay = true;
    base.location.decay_initial = 0.05;
    base.location.decay_step = 0.05;
    base.location.decay_final = 0.75;
    base.location.decay_epoch_events = 50;
    base.location.epoch_events = 50;
    base.seed = 20050628;
    const std::size_t runs = io.trial_runs(5);
    io.apply(base);

    const SigmaSeries series[] = {
        {"1.6-" + faulty_label + " TIBFIT", 1.6, faulty_sigma, core::DecisionPolicy::TrustIndex},
        {"1.6-" + faulty_label + " Baseline", 1.6, faulty_sigma,
         core::DecisionPolicy::MajorityVote},
        {"2-" + faulty_label + " TIBFIT", 2.0, faulty_sigma, core::DecisionPolicy::TrustIndex},
        {"2-" + faulty_label + " Baseline", 2.0, faulty_sigma, core::DecisionPolicy::MajorityVote},
    };

    std::vector<std::vector<double>> curves;
    for (const auto& s : series) {
        exp::Scenario c = base;
        c.faults.correct_sigma = s.correct_sigma;
        c.faults.faulty_sigma = s.faulty_sigma;
        c.engine.policy = s.policy;
        curves.push_back(exp::mean_epoch_accuracy(c, runs));
    }

    util::Table t(title);
    t.header({"events", "% faulty", series[0].name, series[1].name, series[2].name,
              series[3].name});
    const exp::LocationWorkload& wl = base.location;
    for (std::size_t e = 0; e < curves[0].size(); ++e) {
        std::vector<double> row;
        row.push_back(static_cast<double>((e + 1) * wl.decay_epoch_events));
        row.push_back(100.0 * (wl.decay_initial + wl.decay_step * static_cast<double>(e)));
        for (const auto& c : curves) row.push_back(e < c.size() ? c[e] : 0.0);
        t.row_values(row, 3);
    }
    io.emit(t);
    exp::Scenario representative = base;
    representative.faults.correct_sigma = 1.6;
    representative.faults.faulty_sigma = faulty_sigma;
    return io.finish(representative);
}

}  // namespace tibfit::bench
