#include "analysis/location_model.h"

#include <gtest/gtest.h>

#include "analysis/rayleigh.h"
#include "exp/location_experiment.h"
#include "exp/sweep.h"

namespace tibfit::analysis {
namespace {

LocationModelParams params(std::uint64_t faulty) {
    LocationModelParams p;
    p.neighbours = 12;
    p.faulty = faulty;
    return p;
}

TEST(LocationModel, SupportProbabilities) {
    const auto p = params(6);
    // Correct: 99% transmitted, ~99.2% within 5 units at sigma 1.6.
    EXPECT_NEAR(support_probability_correct(p),
                0.99 * (1.0 - rayleigh_exceed(5.0, 1.6)), 1e-12);
    // Faulty: ~74% transmitted, ~50% within 5 at sigma 4.25.
    EXPECT_NEAR(support_probability_faulty(p),
                (1.0 - 0.2575) * (1.0 - rayleigh_exceed(5.0, 4.25)), 1e-12);
    EXPECT_GT(support_probability_correct(p), support_probability_faulty(p));
}

TEST(LocationModel, RejectsBadPopulation) {
    EXPECT_THROW(baseline_location_detection(params(13)), std::invalid_argument);
    EXPECT_THROW(tibfit_asymptotic_detection(params(13)), std::invalid_argument);
}

TEST(LocationModel, NoFaultsNearCertainDetection) {
    EXPECT_GT(baseline_location_detection(params(0)), 0.99);
    EXPECT_GT(tibfit_asymptotic_detection(params(0)), 0.99);
}

TEST(LocationModel, BaselineMonotoneDecreasingInFaults) {
    double prev = 2.0;
    for (std::uint64_t m = 0; m <= 12; ++m) {
        const double d = baseline_location_detection(params(m));
        EXPECT_LE(d, prev + 1e-12) << "m=" << m;
        EXPECT_GE(d, 0.0);
        EXPECT_LE(d, 1.0);
        prev = d;
    }
}

TEST(LocationModel, AsymptoticTibfitDominatesBaselinePastHalf) {
    for (std::uint64_t m = 7; m <= 11; ++m) {
        EXPECT_GT(tibfit_asymptotic_detection(params(m)),
                  baseline_location_detection(params(m)))
            << "m=" << m;
    }
}

TEST(LocationModel, AllFaultyUndetectableInSteadyState) {
    EXPECT_DOUBLE_EQ(tibfit_asymptotic_detection(params(12)), 0.0);
}

TEST(LocationModel, FieldAveragingLowersInteriorEstimate) {
    // Edge events have fewer neighbours, so averaging over the field must
    // sit below the interior (k=12) figure once faults bite.
    FieldGeometry g;
    const LocationModelParams rp = params(0);
    const double interior = baseline_location_detection(params(6));
    const double field = expected_field_detection(rp, g, 0.5, /*asymptotic=*/false);
    EXPECT_LT(field, interior);
    EXPECT_THROW(expected_field_detection(rp, FieldGeometry{100.0, 0, 20.0, 2.0}, 0.5, false),
                 std::invalid_argument);
}

TEST(LocationModel, FieldBaselineUpperBoundsSimulation) {
    // The field-averaged closed form is an upper bound on the simulated
    // Figure-4 baseline: it models support counts exactly but not the
    // cluster-cg drift caused by near-miss faulty reports (which loses a
    // further ~5-10 points at heavy compromise). Bound + tracking within
    // 12 points is the documented contract (EXPERIMENTS.md).
    exp::Scenario c = exp::Scenario::location_defaults();
    c.location.events = 200;
    c.seed = 77;
    c.engine.policy = core::DecisionPolicy::MajorityVote;
    FieldGeometry g;
    const LocationModelParams rp = params(0);
    for (double pct : {0.3, 0.5}) {
        c.location.pct_faulty = pct;
        const double simulated = exp::mean_accuracy(c, 5);
        const double predicted = expected_field_detection(rp, g, pct, false);
        EXPECT_GE(predicted + 0.01, simulated) << "pct=" << pct;   // upper bound
        EXPECT_LE(predicted - simulated, 0.12) << "pct=" << pct;  // ... a tight one
    }
}

TEST(LocationModel, AsymptoteUpperBoundsSimulatedTibfit) {
    exp::Scenario c = exp::Scenario::location_defaults();
    c.location.events = 200;
    c.seed = 78;
    for (double pct : {0.5, 0.58}) {
        c.location.pct_faulty = pct;
        const double simulated = exp::mean_accuracy(c, 5);
        const double bound =
            tibfit_asymptotic_detection(params(static_cast<std::uint64_t>(pct * 12 + 0.5)));
        EXPECT_LE(simulated, bound + 0.05) << "pct=" << pct;
    }
}

}  // namespace
}  // namespace tibfit::analysis
