// Cross-configuration property sweeps over the whole experiment harness:
// for every (policy, adversary level, compromise fraction) combination the
// run must be deterministic, score within bounds, and respect the paper's
// orderings.
#include <gtest/gtest.h>

#include <tuple>

#include "exp/location_experiment.h"

namespace tibfit::exp {
namespace {

using Combo = std::tuple<int /*level*/, double /*pct*/, bool /*baseline*/>;

class HarnessSweep : public ::testing::TestWithParam<Combo> {
  protected:
    Scenario make_config() const {
        const auto [level, pct, baseline] = GetParam();
        Scenario c = Scenario::location_defaults();
        c.location.events = 80;
        c.seed = 4242;
        c.location.pct_faulty = pct;
        c.engine.policy = baseline ? core::DecisionPolicy::MajorityVote
                                   : core::DecisionPolicy::TrustIndex;
        switch (level) {
            case 1: c.location.fault_level = sensor::NodeClass::Level1; break;
            case 2: c.location.fault_level = sensor::NodeClass::Level2; break;
            default: c.location.fault_level = sensor::NodeClass::Level0; break;
        }
        return c;
    }
};

TEST_P(HarnessSweep, DeterministicAndBounded) {
    const auto cfg = make_config();
    const auto a = run_location_experiment(cfg);
    const auto b = run_location_experiment(cfg);

    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.false_positives, b.false_positives);
    EXPECT_EQ(a.isolated, b.isolated);

    EXPECT_GE(a.accuracy, 0.0);
    EXPECT_LE(a.accuracy, 1.0);
    EXPECT_EQ(a.events, 80u);
    EXPECT_LE(a.detected, a.events);
    EXPECT_GE(a.mean_ti_correct, 0.0);
    EXPECT_LE(a.mean_ti_correct, 1.0);
    EXPECT_GE(a.mean_ti_faulty, 0.0);
    EXPECT_LE(a.mean_ti_faulty, 1.0);
}

TEST_P(HarnessSweep, TrustStateOnlyUnderTibfit) {
    const auto cfg = make_config();
    const auto r = run_location_experiment(cfg);
    if (cfg.engine.policy == core::DecisionPolicy::MajorityVote) {
        // Stateless baseline: nothing is ever isolated and no trust forms.
        EXPECT_EQ(r.isolated, 0u);
        EXPECT_DOUBLE_EQ(r.mean_ti_correct, 1.0);
        EXPECT_DOUBLE_EQ(r.mean_ti_faulty, 1.0);
    } else if (cfg.location.pct_faulty >= 0.3) {
        // TIBFIT separates the classes wherever there are faults to judge.
        EXPECT_LT(r.mean_ti_faulty, r.mean_ti_correct);
    }
}

std::string combo_name(const ::testing::TestParamInfo<Combo>& info) {
    return "Lvl" + std::to_string(std::get<0>(info.param)) + "_pct" +
           std::to_string(static_cast<int>(std::get<1>(info.param) * 100)) +
           (std::get<2>(info.param) ? "_baseline" : "_tibfit");
}

INSTANTIATE_TEST_SUITE_P(Grid, HarnessSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(0.1, 0.3, 0.5),
                                            ::testing::Bool()),
                         combo_name);

class SeedStability : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedStability, AccuracyStaysInPlausibleBand) {
    // Seed-to-seed variation at a fixed config is real but bounded: a
    // badly skewed run would indicate a determinism or scoring bug.
    Scenario c = Scenario::location_defaults();
    c.location.events = 100;
    c.location.pct_faulty = 0.3;
    c.seed = GetParam();
    const auto r = run_location_experiment(c);
    EXPECT_GT(r.accuracy, 0.9) << "seed " << GetParam();
    EXPECT_LE(r.false_positives, 5u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedStability,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace tibfit::exp
