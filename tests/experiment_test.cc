// Integration tests: whole-network simulations through the experiment
// harness, checking the paper's qualitative claims end-to-end on fixed
// seeds (small event counts keep these fast).
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "exp/binary_experiment.h"
#include "exp/location_experiment.h"
#include "exp/sweep.h"
#include "exp/trace.h"

namespace tibfit::exp {
namespace {

Scenario binary_base() {
    Scenario c = Scenario::binary_defaults();
    c.binary.n_nodes = 10;
    c.binary.events = 100;
    c.engine.trust.lambda = 0.1;
    c.faults.natural_error_rate = 0.01;
    c.faults.missed_alarm_rate = 0.5;
    c.channel.drop_probability = 0.0;
    c.seed = 42;
    return c;
}

Scenario location_base() {
    Scenario c = Scenario::location_defaults();
    c.location.events = 100;
    c.seed = 42;
    return c;
}

TEST(BinaryExperiment, Deterministic) {
    const auto a = run_binary_experiment(binary_base());
    const auto b = run_binary_experiment(binary_base());
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.mean_ti_faulty, b.mean_ti_faulty);
}

TEST(BinaryExperiment, RunsAllEvents) {
    const auto r = run_binary_experiment(binary_base());
    EXPECT_EQ(r.events, 100u);
}

TEST(BinaryExperiment, HighAccuracyAtModerateCompromise) {
    auto c = binary_base();
    c.binary.pct_faulty = 0.5;
    const auto r = run_binary_experiment(c);
    EXPECT_GT(r.accuracy, 0.9);
}

TEST(BinaryExperiment, FaultyNodesLoseTrust) {
    auto c = binary_base();
    c.binary.pct_faulty = 0.5;
    const auto r = run_binary_experiment(c);
    // Correct nodes occasionally miss (NER) and recover slowly; faulty
    // nodes' trust collapses well below theirs.
    EXPECT_GT(r.mean_ti_correct, 0.8);
    EXPECT_LT(r.mean_ti_faulty, 0.3);
}

TEST(BinaryExperiment, TibfitBeatsBaselineAtHighCompromise) {
    auto tib = binary_base();
    tib.binary.pct_faulty = 0.8;
    auto base = tib;
    base.engine.policy = core::DecisionPolicy::MajorityVote;
    const double a_tib = mean_accuracy(tib, 10);
    const double a_base = mean_accuracy(base, 10);
    EXPECT_GT(a_tib, a_base);
}

TEST(BinaryExperiment, FalseAlarmsCreateNegativeInstances) {
    auto c = binary_base();
    c.binary.pct_faulty = 0.5;
    c.faults.false_alarm_rate = 0.75;
    const auto r = run_binary_experiment(c);
    EXPECT_GT(r.false_alarm_windows, 0u);
    // With half the network fresh-compromised, the honest majority CTI
    // rejects most phantom windows.
    EXPECT_LT(r.phantoms_declared, r.false_alarm_windows);
}

TEST(BinaryExperiment, ModerateFalseAlarmsDoNotHurtDetection) {
    // The Figure-3 effect: false alarms drain faulty nodes' trust.
    auto quiet = binary_base();
    quiet.binary.pct_faulty = 0.7;
    auto noisy = quiet;
    noisy.faults.false_alarm_rate = 0.75;
    const double det_quiet = mean_accuracy(quiet, 10);
    const double det_noisy = mean_accuracy(noisy, 10);
    EXPECT_GT(det_noisy, det_quiet - 0.05);
}

TEST(BinaryExperiment, CorruptChDestroysAccuracy) {
    auto c = binary_base();
    c.binary.pct_faulty = 0.4;
    c.binary.corrupt_ch = true;
    const auto r = run_binary_experiment(c);
    EXPECT_LT(r.accuracy, 0.1);  // every announcement inverted
}

TEST(BinaryExperiment, ShadowsMaskCorruptCh) {
    auto c = binary_base();
    c.binary.pct_faulty = 0.4;
    c.binary.corrupt_ch = true;
    c.binary.use_shadows = true;
    const auto r = run_binary_experiment(c);
    EXPECT_GT(r.accuracy, 0.95);
    EXPECT_GT(r.ch_overrides, 90u);  // nearly every decision was corrected
}

TEST(BinaryExperiment, ShadowsNeutralWithHonestCh) {
    auto c = binary_base();
    c.binary.pct_faulty = 0.4;
    auto with = c;
    with.binary.use_shadows = true;
    const auto plain = run_binary_experiment(c);
    const auto shadowed = run_binary_experiment(with);
    EXPECT_NEAR(shadowed.accuracy, plain.accuracy, 0.03);
    EXPECT_EQ(shadowed.ch_overrides, 0u);
}

TEST(LocationExperiment, Deterministic) {
    const auto a = run_location_experiment(location_base());
    const auto b = run_location_experiment(location_base());
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.false_positives, b.false_positives);
}

TEST(LocationExperiment, NearPerfectWithFewFaults) {
    auto c = location_base();
    c.location.pct_faulty = 0.1;
    const auto r = run_location_experiment(c);
    EXPECT_GT(r.accuracy, 0.95);
    EXPECT_EQ(r.events, 100u);
}

TEST(LocationExperiment, FaultyNodesLoseTrust) {
    auto c = location_base();
    c.location.pct_faulty = 0.3;
    c.location.events = 150;
    const auto r = run_location_experiment(c);
    EXPECT_GT(r.mean_ti_correct, 0.8);
    EXPECT_LT(r.mean_ti_faulty, r.mean_ti_correct - 0.3);
}

TEST(LocationExperiment, TibfitBeatsBaselinePastHalf) {
    auto tib = location_base();
    tib.location.pct_faulty = 0.55;
    tib.location.events = 150;
    auto base = tib;
    base.engine.policy = core::DecisionPolicy::MajorityVote;
    const double a_tib = mean_accuracy(tib, 3);
    const double a_base = mean_accuracy(base, 3);
    EXPECT_GT(a_tib, a_base + 0.03);
}

TEST(LocationExperiment, Level1KeepsAccuracyHigh) {
    // Figure 5: the hysteresis forces level-1 nodes to mostly behave.
    auto c = location_base();
    c.location.pct_faulty = 0.58;
    c.location.fault_level = sensor::NodeClass::Level1;
    c.location.events = 150;
    const auto r = run_location_experiment(c);
    EXPECT_GT(r.accuracy, 0.85);
}

TEST(LocationExperiment, Level2WorseThanLevel1) {
    // Figure 6: collusion hurts more than independent smart faults.
    auto l1 = location_base();
    l1.location.pct_faulty = 0.5;
    l1.location.events = 150;
    l1.location.fault_level = sensor::NodeClass::Level1;
    auto l2 = l1;
    l2.location.fault_level = sensor::NodeClass::Level2;
    const double a1 = mean_accuracy(l1, 3);
    const double a2 = mean_accuracy(l2, 3);
    EXPECT_LE(a2, a1 + 0.02);
}

TEST(LocationExperiment, ConcurrentEventsComparableToSingle) {
    // Figure 7: concurrency does not materially change accuracy.
    auto single = location_base();
    single.location.pct_faulty = 0.3;
    single.location.events = 120;
    auto conc = single;
    conc.location.burst = 2;
    const double a_single = mean_accuracy(single, 3);
    const double a_conc = mean_accuracy(conc, 3);
    EXPECT_NEAR(a_conc, a_single, 0.12);
}

TEST(LocationExperiment, DecayProducesEpochSeries) {
    auto c = location_base();
    c.location.decay = true;
    c.location.decay_initial = 0.05;
    c.location.decay_step = 0.10;
    c.location.decay_final = 0.55;
    c.location.decay_epoch_events = 30;
    c.location.epoch_events = 30;
    const auto r = run_location_experiment(c);
    EXPECT_EQ(r.events, 6u * 30u);
    ASSERT_EQ(r.epoch_accuracy.size(), 6u);
    // Early epochs (5% compromised) are nearly perfect; the last (55%) is
    // worse but the run still functions.
    EXPECT_GT(r.epoch_accuracy.front(), 0.9);
    EXPECT_GT(r.epoch_accuracy.back(), 0.3);
}

TEST(LocationExperiment, DecayTibfitOutlastsBaseline) {
    auto tib = location_base();
    tib.location.decay = true;
    tib.location.decay_initial = 0.05;
    tib.location.decay_step = 0.10;
    tib.location.decay_final = 0.65;
    tib.location.decay_epoch_events = 25;
    tib.location.epoch_events = 25;
    auto base = tib;
    base.engine.policy = core::DecisionPolicy::MajorityVote;
    const auto rt = mean_epoch_accuracy(tib, 3);
    const auto rb = mean_epoch_accuracy(base, 3);
    ASSERT_EQ(rt.size(), rb.size());
    // Cumulative accuracy over the decayed half of the run favours TIBFIT.
    double t_late = 0.0, b_late = 0.0;
    for (std::size_t i = rt.size() / 2; i < rt.size(); ++i) {
        t_late += rt[i];
        b_late += rb[i];
    }
    EXPECT_GT(t_late, b_late);
}

TEST(LocationExperiment, IsolationDiagnosesFaultyNodes) {
    auto c = location_base();
    c.location.pct_faulty = 0.3;
    c.location.events = 200;
    const auto r = run_location_experiment(c);
    EXPECT_GT(r.isolated, 0u);  // diagnosis happened
}

TEST(LocationExperiment, MultiHopMatchesSingleHop) {
    // Section 3.4 extension: the decision pipeline should be agnostic to
    // whether reports arrive in one hop or over relays.
    auto single = location_base();
    single.location.pct_faulty = 0.3;
    single.location.events = 120;
    auto multi = single;
    multi.location.multihop = true;
    multi.location.radio_range = 30.0;
    const auto rs = run_location_experiment(single);
    const auto rm = run_location_experiment(multi);
    EXPECT_NEAR(rm.accuracy, rs.accuracy, 0.08);
    EXPECT_GT(rm.accuracy, 0.85);
}

TEST(LocationExperiment, MultiHopDeterministic) {
    auto c = location_base();
    c.location.multihop = true;
    c.location.events = 60;
    const auto a = run_location_experiment(c);
    const auto b = run_location_experiment(c);
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.detected, b.detected);
}

TEST(LocationExperiment, CollusionDefenseImprovesLevel2) {
    auto off = location_base();
    off.location.fault_level = sensor::NodeClass::Level2;
    off.location.pct_faulty = 0.55;
    off.location.events = 200;
    auto on = off;
    on.engine.collusion_defense = true;
    const double a_off = mean_accuracy(off, 3);
    const double a_on = mean_accuracy(on, 3);
    EXPECT_GT(a_on, a_off + 0.05);
}

TEST(LocationExperiment, RandomLayoutAlsoWorks) {
    auto c = location_base();
    c.location.grid_layout = false;
    c.location.pct_faulty = 0.2;
    const auto r = run_location_experiment(c);
    EXPECT_GT(r.accuracy, 0.85);
}

TEST(LocationExperiment, TraceCapturesRun) {
    auto c = location_base();
    c.location.events = 40;
    c.location.keep_trace = true;
    const auto r = run_location_experiment(c);
    EXPECT_EQ(r.trace_events.size(), 40u);
    EXPECT_GE(r.trace_decisions.size(), r.detected);

    std::ostringstream os;
    write_trace_csv(os, r.trace_events, r.trace_decisions);
    const std::string s = os.str();
    EXPECT_NE(s.find("# events"), std::string::npos);
    EXPECT_NE(s.find("# decisions"), std::string::npos);
    // One line per event + per decision + 4 headers/markers.
    const auto lines = static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n'));
    EXPECT_EQ(lines, r.trace_events.size() + r.trace_decisions.size() + 4);
}

TEST(LocationExperiment, TraceOffByDefault) {
    auto c = location_base();
    c.location.events = 20;
    const auto r = run_location_experiment(c);
    EXPECT_TRUE(r.trace_events.empty());
    EXPECT_TRUE(r.trace_decisions.empty());
}

TEST(Sweep, BinarySweepShapes) {
    auto few = binary_base();
    few.binary.pct_faulty = 0.2;
    auto many = binary_base();
    many.binary.pct_faulty = 0.9;
    EXPECT_GT(mean_accuracy(few, 3), mean_accuracy(many, 3));  // more faults, less accuracy
}

TEST(Sweep, LocationSweepShapes) {
    auto few = location_base();
    few.location.events = 80;
    few.location.pct_faulty = 0.1;
    auto many = few;
    many.location.pct_faulty = 0.58;
    EXPECT_GE(mean_accuracy(few, 2), mean_accuracy(many, 2));
}

}  // namespace
}  // namespace tibfit::exp
