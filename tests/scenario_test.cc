// exp::Scenario contract tests: the validate() rejection table, the JSON
// round-trip, the fluent builder, and equivalence of the deprecated
// flat-config shims with the Scenario-native entry points.
#include "exp/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "exp/binary_experiment.h"
#include "exp/location_experiment.h"
#include "exp/sweep.h"
#include "obs/json.h"

namespace tibfit::exp {
namespace {

bool mentions(const std::vector<std::string>& errors, const std::string& needle) {
    return std::any_of(errors.begin(), errors.end(), [&](const std::string& e) {
        return e.find(needle) != std::string::npos;
    });
}

TEST(Scenario, DefaultsAreValid) {
    EXPECT_TRUE(Scenario::binary_defaults().validate().empty());
    EXPECT_TRUE(Scenario::location_defaults().validate().empty());
}

TEST(Scenario, ValidateRejectionTable) {
    static constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    static constexpr double kInf = std::numeric_limits<double>::infinity();
    struct Case {
        const char* needle;
        void (*mutate)(Scenario&);
        bool location_kind;
    };
    const Case cases[] = {
        {"lambda", [](Scenario& s) { s.engine.trust.lambda = 0.0; }, false},
        {"r_error exceeds the deployment extent",
         [](Scenario& s) { s.engine.r_error = s.deployment.field + 1.0; }, false},
        {"retry budget with zero ack_timeout",
         [](Scenario& s) { s.transport.ack_timeout = 0.0; }, false},
        {"removal_ti", [](Scenario& s) { s.engine.trust.removal_ti = 1.5; }, false},
        {"t_out", [](Scenario& s) { s.engine.t_out = 0.0; }, false},
        {"drop_probability", [](Scenario& s) { s.channel.drop_probability = 1.5; }, false},
        {"false_alarm_rate", [](Scenario& s) { s.faults.false_alarm_rate = -0.25; }, false},
        {"speed_min > speed_max",
         [](Scenario& s) {
             s.mobility.speed_min = 2.0;
             s.mobility.speed_max = 1.0;
         },
         false},
        {"pct_faulty", [](Scenario& s) { s.binary.pct_faulty = 1.2; }, false},
        // NaN slips past a plain `< 0.0` check; non-finite channel timing
        // would reach the event queue.
        {"drop_probability", [](Scenario& s) { s.channel.drop_probability = kNaN; }, false},
        {"base_latency", [](Scenario& s) { s.channel.base_latency = kNaN; }, false},
        {"base_latency", [](Scenario& s) { s.channel.base_latency = kInf; }, false},
        {"propagation_speed", [](Scenario& s) { s.channel.propagation_speed = kNaN; }, false},
        {"propagation_speed", [](Scenario& s) { s.channel.propagation_speed = kInf; }, false},
        {"airtime", [](Scenario& s) { s.channel.airtime = kNaN; }, true},
        {"airtime", [](Scenario& s) { s.channel.airtime = kInf; }, false},
        {"airtime", [](Scenario& s) { s.channel.airtime = -1.0; }, false},
        {"tx_jitter", [](Scenario& s) { s.location.tx_jitter = kNaN; }, true},
        {"tx_jitter", [](Scenario& s) { s.location.tx_jitter = kInf; }, true},
        {"events", [](Scenario& s) { s.binary.events = 0; }, false},
        {"mutually exclusive",
         [](Scenario& s) {
             s.binary.use_shadows = true;
             s.campaign.failovers.push_back({100.0, -1.0, true});
         },
         false},
        {"explicit trust fault_rate",
         [](Scenario& s) { s.engine.trust.fault_rate = -1.0; }, true},
        {"n_ch", [](Scenario& s) { s.location.n_ch = 0; }, true},
        {"decay_final < decay_initial",
         [](Scenario& s) {
             s.location.decay = true;
             s.location.decay_initial = 0.5;
             s.location.decay_final = 0.1;
         },
         true},
        // Campaign defects surface through scenario.validate() too.
        {"window", [](Scenario& s) {
             net::ChannelFaultWindow w;
             w.start = 50.0;
             w.end = 10.0;  // inverted
             s.campaign.degradations.push_back(w);
         }, false},
        {"recover", [](Scenario& s) {
             s.campaign.failovers.push_back({100.0, 50.0, true});  // recover before kill
         }, false},
    };
    for (const auto& c : cases) {
        Scenario s = c.location_kind ? Scenario::location_defaults() : Scenario::binary_defaults();
        c.mutate(s);
        const auto errors = s.validate();
        EXPECT_FALSE(errors.empty()) << c.needle;
        EXPECT_TRUE(mentions(errors, c.needle))
            << "expected an error mentioning '" << c.needle << "'";
    }
}

// Only a non-finite jitter is refused: a negative one has always been
// accepted and means no jitter.
TEST(Scenario, NegativeTxJitterIsAccepted) {
    Scenario s = Scenario::location_defaults();
    s.location.tx_jitter = -1.0;
    EXPECT_TRUE(s.validate().empty());
}

TEST(Scenario, FluentBuilderComposes) {
    Scenario s = Scenario::binary_defaults()
                     .with_seed(77)
                     .with_policy(core::DecisionPolicy::MajorityVote)
                     .with_lambda(0.5)
                     .with_fault_rate(0.02)
                     .with_removal_ti(0.1)
                     .with_t_out(2.0)
                     .with_channel_drop(0.05)
                     .with_pct_faulty(0.3)
                     .with_events(42);
    EXPECT_EQ(s.seed, 77u);
    EXPECT_EQ(s.engine.policy, core::DecisionPolicy::MajorityVote);
    EXPECT_EQ(s.engine.trust.lambda, 0.5);
    EXPECT_EQ(s.engine.trust.fault_rate, 0.02);
    EXPECT_EQ(s.engine.trust.removal_ti, 0.1);
    EXPECT_EQ(s.engine.t_out, 2.0);
    EXPECT_EQ(s.channel.drop_probability, 0.05);
    EXPECT_EQ(s.binary.pct_faulty, 0.3);
    EXPECT_EQ(s.location.pct_faulty, 0.3);
    EXPECT_EQ(s.binary.events, 42u);
}

TEST(Scenario, EffectiveTrustResolvesNerSentinel) {
    Scenario s = Scenario::binary_defaults();
    s.faults.natural_error_rate = 0.05;
    ASSERT_LT(s.engine.trust.fault_rate, 0.0);
    EXPECT_EQ(s.effective_trust().fault_rate, 0.05);
    // Location kind never applies the sentinel.
    Scenario loc = Scenario::location_defaults();
    loc.engine.trust.fault_rate = 0.1;
    EXPECT_EQ(loc.effective_trust().fault_rate, 0.1);
}

TEST(Scenario, JsonRoundTripPreservesEveryLayer) {
    Scenario s = Scenario::location_defaults();
    s.seed = 123456;
    s.engine.policy = core::DecisionPolicy::MajorityVote;
    s.engine.trust.lambda = 0.3;
    s.engine.r_error = 7.5;
    s.channel.drop_probability = 0.02;
    s.channel.airtime = 0.001;
    s.transport.max_retries = 9;
    s.deployment.field = 150.0;
    s.faults.faulty_sigma = 5.5;
    s.faults.collusion_jitter = 0.25;
    s.mobility.speed_max = 3.0;
    s.location.n_nodes = 64;
    s.location.fault_level = sensor::NodeClass::Level2;
    s.location.multihop = true;
    s.location.decay = true;
    s.location.decay_final = 0.6;
    net::ChannelFaultWindow w;
    w.start = 5.0;
    w.end = 10.0;
    w.extra_drop = 0.5;
    s.campaign.degradations.push_back(w);
    s.campaign.compromises.push_back({400.0, 0.5});

    const Scenario back = scenario_from_json_text(to_json(s));
    EXPECT_EQ(back.kind, Scenario::Kind::Location);
    EXPECT_EQ(back.seed, 123456u);
    EXPECT_EQ(back.engine.policy, core::DecisionPolicy::MajorityVote);
    EXPECT_EQ(back.engine.trust.lambda, 0.3);
    EXPECT_EQ(back.engine.r_error, 7.5);
    EXPECT_EQ(back.channel.drop_probability, 0.02);
    EXPECT_EQ(back.channel.airtime, 0.001);
    EXPECT_EQ(back.transport.max_retries, 9u);
    EXPECT_EQ(back.deployment.field, 150.0);
    EXPECT_EQ(back.faults.faulty_sigma, 5.5);
    EXPECT_EQ(back.faults.collusion_jitter, 0.25);
    EXPECT_EQ(back.mobility.speed_max, 3.0);
    EXPECT_EQ(back.location.n_nodes, 64u);
    EXPECT_EQ(back.location.fault_level, sensor::NodeClass::Level2);
    EXPECT_TRUE(back.location.multihop);
    EXPECT_TRUE(back.location.decay);
    EXPECT_EQ(back.location.decay_final, 0.6);
    ASSERT_EQ(back.campaign.degradations.size(), 1u);
    EXPECT_EQ(back.campaign.degradations[0].extra_drop, 0.5);
    ASSERT_EQ(back.campaign.compromises.size(), 1u);
    EXPECT_EQ(back.campaign.compromises[0].target_pct, 0.5);
}

TEST(Scenario, FromJsonRejectsUnknownKind) {
    EXPECT_THROW(scenario_from_json_text(R"({"kind": "quantum"})"), std::runtime_error);
    EXPECT_THROW(scenario_from_json_text(R"([1, 2, 3])"), std::runtime_error);
}

// The deprecated flat configs must keep producing bit-identical results
// through their shims for the transition release.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"

TEST(Scenario, BinaryShimMatchesScenarioRun) {
    BinaryConfig c;
    c.n_nodes = 10;
    c.pct_faulty = 0.4;
    c.events = 40;
    c.false_alarm_rate = 0.1;
    c.seed = 31337;
    const BinaryResult via_shim = run_binary_experiment(c);
    const BinaryResult via_scenario = run_binary_experiment(to_scenario(c));
    EXPECT_EQ(via_shim.accuracy, via_scenario.accuracy);
    EXPECT_EQ(via_shim.detected, via_scenario.detected);
    EXPECT_EQ(via_shim.false_alarm_windows, via_scenario.false_alarm_windows);
    EXPECT_EQ(via_shim.mean_ti_faulty, via_scenario.mean_ti_faulty);
}

TEST(Scenario, LocationShimMatchesScenarioRun) {
    LocationConfig c;
    c.events = 40;
    c.pct_faulty = 0.3;
    c.seed = 31337;
    const LocationResult via_shim = run_location_experiment(c);
    const LocationResult via_scenario = run_location_experiment(to_scenario(c));
    EXPECT_EQ(via_shim.accuracy, via_scenario.accuracy);
    EXPECT_EQ(via_shim.detected, via_scenario.detected);
    EXPECT_EQ(via_shim.isolated, via_scenario.isolated);
    EXPECT_EQ(via_shim.mean_ti_correct, via_scenario.mean_ti_correct);
}

TEST(Scenario, SweepShimMatchesScenarioSweep) {
    BinaryConfig c;
    c.events = 30;
    c.seed = 5;
    const std::vector<double> xs = {0.3, 0.5};
    const auto legacy = sweep_binary(
        c, xs, [](BinaryConfig& cfg, double x) { cfg.pct_faulty = x; }, 4);
    const auto modern = sweep(
        to_scenario(c), xs, [](Scenario& s, double x) { s.binary.pct_faulty = x; }, 4);
    EXPECT_EQ(legacy, modern);
}

#pragma GCC diagnostic pop

}  // namespace
}  // namespace tibfit::exp
