#include "analysis/trust_trajectory.h"

#include <gtest/gtest.h>

#include "analysis/ti_dynamics.h"
#include "exp/binary_experiment.h"
#include "exp/sweep.h"

namespace tibfit::analysis {
namespace {

TrajectoryParams params(std::size_t m, double ner = 0.01) {
    TrajectoryParams p;
    p.n = 10;
    p.m = m;
    p.ner = ner;
    p.missed_rate = 0.5;
    p.lambda = 0.1;
    p.fault_rate = ner;
    return p;
}

TEST(MeanField, RejectsBadPopulation) {
    EXPECT_THROW(mean_field_trajectory(params(11), 10), std::invalid_argument);
}

TEST(MeanField, CorrectNodesAtNerHaveZeroDrift) {
    // With f_r = NER and events always declared, E[dv] of a correct node
    // is zero: its trust stays pinned at 1.
    const auto traj = mean_field_trajectory(params(3), 200);
    for (const auto& pt : traj) {
        EXPECT_TRUE(pt.event_detected);
        EXPECT_NEAR(pt.ti_correct, 1.0, 1e-9);
    }
}

TEST(MeanField, FaultyTrustDecaysMonotonically) {
    const auto traj = mean_field_trajectory(params(5), 100);
    double prev = 1.0;
    for (const auto& pt : traj) {
        EXPECT_LE(pt.ti_faulty, prev + 1e-12);
        prev = pt.ti_faulty;
    }
    EXPECT_LT(traj.back().ti_faulty, 0.1);
}

TEST(MeanField, DetectionHoldsThroughEightyPercent) {
    // Figure 2's regime: expected-value decisions stay correct up to 80%
    // faulty because the faulty side sheds trust.
    for (std::size_t m : {4u, 5u, 6u, 7u, 8u}) {
        EXPECT_DOUBLE_EQ(predicted_detection_rate(params(m), 100), 1.0) << "m=" << m;
    }
}

TEST(MeanField, MarginShrinksWithMoreFaults) {
    const auto few = mean_field_trajectory(params(3), 50);
    const auto many = mean_field_trajectory(params(8), 50);
    EXPECT_GT(few.back().cti_margin, many.back().cti_margin);
}

TEST(MeanField, PredictsSimulatedAccuracyShape) {
    // Where the mean-field model says detection holds, the stochastic
    // simulation should score high accuracy too (missed alarms only).
    exp::Scenario sim_cfg = exp::Scenario::binary_defaults();
    sim_cfg.binary.events = 100;
    sim_cfg.channel.drop_probability = 0.0;
    sim_cfg.seed = 99;
    for (double pct : {0.4, 0.6, 0.7}) {
        sim_cfg.binary.pct_faulty = pct;
        const auto m = static_cast<std::size_t>(pct * 10 + 0.5);
        const double predicted = predicted_detection_rate(params(m), 100);
        const double simulated = exp::mean_accuracy(sim_cfg, 10);
        EXPECT_DOUBLE_EQ(predicted, 1.0);
        EXPECT_GT(simulated, 0.9) << "pct=" << pct;
    }
}

TEST(MeanField, FalseAlarmsDrainFaultyTrustFaster) {
    // The Figure-3 mechanism: uncoordinated false alarms are standing
    // opportunities for the CH to penalize the liars. (With missed_rate
    // above 1/2 the faulty mass sits net on the silent side, so draining
    // it widens the real-event margin.)
    auto quiet = params(7);
    quiet.missed_rate = 0.7;
    auto noisy = quiet;
    noisy.false_alarm_rate = 0.75;
    const auto tq = mean_field_trajectory(quiet, 8);
    const auto tn = mean_field_trajectory(noisy, 8);
    EXPECT_LT(tn.back().ti_faulty, tq.back().ti_faulty);
    // ... which widens the decision margin on real events mid-trajectory.
    EXPECT_GT(tn.back().cti_margin, tq.back().cti_margin);
}

TEST(MeanField, FalseAlarmsDoNotHurtCorrectNodes) {
    auto p = params(7);
    p.false_alarm_rate = 0.75;
    const auto t = mean_field_trajectory(p, 50);
    EXPECT_NEAR(t.back().ti_correct, 1.0, 1e-9);
}

TEST(IdealDecay, RejectsBadArguments) {
    EXPECT_THROW(ideal_decay_survival(2, 5, 0.25, 100), std::invalid_argument);
    EXPECT_THROW(ideal_decay_survival(10, 0, 0.25, 100), std::invalid_argument);
}

TEST(IdealDecay, GenerousSpacingSurvivesDeepCorruption) {
    // k far above the Figure-11 root: the system keeps deciding correctly
    // through at least N-3 corruptions.
    const std::size_t n = 10;
    const double lambda = 0.25;
    const auto root = static_cast<std::size_t>(min_tolerable_spacing(lambda, n)) + 2;
    const std::size_t survival = ideal_decay_survival(n, root, lambda, 10000);
    EXPECT_GE(survival, (n - 3) * root);
}

TEST(IdealDecay, TightSpacingBreaksEarly) {
    // k = 1 with small lambda: corruption outruns trust decay; the faulty
    // majority flips a decision long before N-3 corruptions.
    const std::size_t n = 10;
    const double lambda = 0.05;
    const std::size_t survival = ideal_decay_survival(n, 1, lambda, 10000);
    EXPECT_LT(survival, (n - 3) * 1 + 40);
}

TEST(IdealDecay, SurvivalMonotoneInSpacing) {
    const std::size_t n = 10;
    const double lambda = 0.1;
    std::size_t prev = 0;
    for (std::size_t k : {1u, 3u, 7u, 10u, 14u}) {
        const std::size_t s = ideal_decay_survival(n, k, lambda, 100000);
        EXPECT_GE(s, prev) << "k=" << k;
        prev = s;
    }
}

TEST(IdealDecay, RootFromFigure11SeparatesRegimes) {
    // Just above the analytic root the system reaches deep corruption;
    // well below it, it does not.
    const std::size_t n = 10;
    const double lambda = 0.25;
    const double root = min_tolerable_spacing(lambda, n);  // ~2.77 events
    const auto above = ideal_decay_survival(n, static_cast<std::size_t>(root) + 2, lambda, 100000);
    const auto below = ideal_decay_survival(n, 1, lambda, 100000);
    EXPECT_GT(above, below);
}

}  // namespace
}  // namespace tibfit::analysis
