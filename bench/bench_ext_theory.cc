// Extension bench — mean-field theory vs. simulation (the "more extensive
// theoretical model to ... predict system reliability" of Section 7).
//
// Left block: the mean-field trajectory's predicted detection rate and
// final trust levels for the Figure-2 setting, against the simulated
// accuracy at the same parameters. Right block: the Section-5 ideal decay
// scenario — the number of events the system survives at 100% accuracy as
// a function of the corruption spacing k, bracketing the analytic root
// from Figure 11.
#include <vector>

#include "analysis/location_model.h"
#include "analysis/ti_dynamics.h"
#include "analysis/trust_trajectory.h"
#include "exp/bench_io.h"
#include "exp/sweep.h"
#include "util/table.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_ext_theory", argc, argv);
    const std::size_t binary_runs = io.trial_runs(20);
    const std::size_t location_runs = io.trial_runs(5);

    util::Table t("Theory vs simulation: binary model, missed alarms only (N=10, NER 1%)");
    t.header({"% faulty", "mean-field detection", "mean-field TI_faulty@100",
              "simulated accuracy"});
    exp::Scenario sim_cfg = exp::Scenario::binary_defaults();
    sim_cfg.binary.events = 100;
    sim_cfg.channel.drop_probability = 0.0;
    sim_cfg.seed = 20050628;
    io.apply(sim_cfg);
    for (std::size_t m = 4; m <= 9; ++m) {
        analysis::TrajectoryParams p;
        p.n = 10;
        p.m = m;
        p.ner = 0.01;
        p.missed_rate = 0.5;
        p.lambda = 0.1;
        p.fault_rate = 0.01;
        const auto traj = analysis::mean_field_trajectory(p, 100);
        sim_cfg.binary.pct_faulty = static_cast<double>(m) / 10.0;
        t.row_values({100.0 * static_cast<double>(m) / 10.0,
                      analysis::predicted_detection_rate(p, 100), traj.back().ti_faulty,
                      exp::mean_accuracy(sim_cfg, binary_runs)},
                     3);
    }
    io.emit(t);

    util::Table d("Section-5 ideal decay: 100%-accuracy survival vs corruption spacing k "
                  "(N=10, lambda=0.25, analytic root k*=" +
                  util::Table::num(analysis::min_tolerable_spacing(0.25, 10), 2) + ")");
    d.header({"k (events between corruptions)", "events survived", "corruptions absorbed"});
    for (std::size_t k : {1u, 2u, 3u, 4u, 6u, 8u}) {
        const std::size_t survived = analysis::ideal_decay_survival(10, k, 0.25, 100000);
        d.row_values({static_cast<double>(k), static_cast<double>(survived),
                      static_cast<double>(survived / k)},
                     0);
    }
    io.emit(d);

    // Location-model closed forms vs simulation, averaged over event
    // positions on the 100x100 grid (edge events have fewer neighbours).
    // The closed forms bound the simulation from above: they model support
    // counts exactly but not cluster-cg drift from near-miss reports.
    util::Table loc("Location-model theory vs simulation (field-averaged, sigma 1.6-4.25)");
    loc.header({"% faulty", "closed-form baseline", "simulated baseline",
                "TIBFIT steady-state bound", "simulated TIBFIT"});
    exp::Scenario lc = exp::Scenario::location_defaults();
    lc.location.events = 200;
    lc.seed = 20050628;
    io.apply(lc);
    analysis::LocationModelParams report_params;
    analysis::FieldGeometry geometry;
    for (double pct : {0.1, 0.3, 0.5, 0.58}) {
        std::vector<double> row{100.0 * pct};
        row.push_back(analysis::expected_field_detection(report_params, geometry, pct,
                                                         /*asymptotic=*/false));
        {
            exp::Scenario c = lc;
            c.location.pct_faulty = pct;
            c.engine.policy = core::DecisionPolicy::MajorityVote;
            row.push_back(exp::mean_accuracy(c, location_runs));
        }
        row.push_back(analysis::expected_field_detection(report_params, geometry, pct,
                                                         /*asymptotic=*/true));
        {
            exp::Scenario c = lc;
            c.location.pct_faulty = pct;
            row.push_back(exp::mean_accuracy(c, location_runs));
        }
        loc.row_values(row, 3);
    }
    io.emit(loc);
    exp::Scenario representative = sim_cfg;
    representative.binary.pct_faulty = 0.5;
    representative.faults.natural_error_rate = 0.01;
    return io.finish(representative);
}
