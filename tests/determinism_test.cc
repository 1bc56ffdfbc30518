// Observability must not perturb the simulation: attaching a Recorder
// (metrics and full tracing) has to leave every decision bit-identical.
// Instrumentation never draws from the RNG and never schedules events, so
// these comparisons are exact — no tolerances.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster_head.h"
#include "exp/binary_experiment.h"
#include "exp/location_experiment.h"
#include "obs/recorder.h"

namespace tibfit {
namespace {

void expect_identical(const std::vector<cluster::DecisionRecord>& a,
                      const std::vector<cluster::DecisionRecord>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(a[i].seq, b[i].seq);
        EXPECT_EQ(a[i].time, b[i].time);  // bit-exact, no tolerance
        EXPECT_EQ(a[i].window_opened, b[i].window_opened);
        EXPECT_EQ(a[i].event_declared, b[i].event_declared);
        EXPECT_EQ(a[i].has_location, b[i].has_location);
        EXPECT_EQ(a[i].location.x, b[i].location.x);
        EXPECT_EQ(a[i].location.y, b[i].location.y);
        EXPECT_EQ(a[i].weight_reporters, b[i].weight_reporters);
        EXPECT_EQ(a[i].weight_silent, b[i].weight_silent);
        EXPECT_EQ(a[i].n_reporters, b[i].n_reporters);
    }
}

TEST(Determinism, BinaryDecisionsUnchangedByRecorder) {
    exp::Scenario cfg = exp::Scenario::binary_defaults();
    cfg.binary.events = 60;
    cfg.binary.pct_faulty = 0.5;
    cfg.faults.false_alarm_rate = 0.1;
    cfg.channel.drop_probability = 0.05;
    cfg.seed = 20050628;
    cfg.keep_decisions = true;

    const auto plain = exp::run_binary_experiment(cfg);

    obs::Recorder rec;
    rec.trace().set_enabled(true);
    exp::Scenario instrumented = cfg;
    instrumented.recorder = &rec;
    const auto traced = exp::run_binary_experiment(instrumented);

    EXPECT_EQ(plain.accuracy, traced.accuracy);
    EXPECT_EQ(plain.detected, traced.detected);
    EXPECT_EQ(plain.mean_ti_correct, traced.mean_ti_correct);
    EXPECT_EQ(plain.mean_ti_faulty, traced.mean_ti_faulty);
    expect_identical(plain.decisions, traced.decisions);

    // And the recorder did record: this was a real instrumented run.
    EXPECT_GT(rec.trace().size(), 0u);
    EXPECT_GT(rec.metrics().counter("cluster.decisions").value(), 0u);
}

TEST(Determinism, BinaryRunsAreRepeatableWithRecorderAttached) {
    exp::Scenario cfg = exp::Scenario::binary_defaults();
    cfg.binary.events = 40;
    cfg.binary.pct_faulty = 0.6;
    cfg.seed = 7;
    cfg.keep_decisions = true;

    obs::Recorder rec1, rec2;
    rec1.trace().set_enabled(true);
    rec2.trace().set_enabled(true);
    exp::Scenario a = cfg, b = cfg;
    a.recorder = &rec1;
    b.recorder = &rec2;
    const auto r1 = exp::run_binary_experiment(a);
    const auto r2 = exp::run_binary_experiment(b);
    expect_identical(r1.decisions, r2.decisions);
    EXPECT_EQ(rec1.trace().size(), rec2.trace().size());
}

TEST(Determinism, LocationDecisionsUnchangedByRecorder) {
    exp::Scenario cfg = exp::Scenario::location_defaults();
    cfg.location.events = 40;
    cfg.location.pct_faulty = 0.3;
    cfg.seed = 20050628;
    cfg.location.keep_trace = true;

    const auto plain = exp::run_location_experiment(cfg);

    obs::Recorder rec;
    rec.trace().set_enabled(true);
    exp::Scenario instrumented = cfg;
    instrumented.recorder = &rec;
    const auto traced = exp::run_location_experiment(instrumented);

    EXPECT_EQ(plain.accuracy, traced.accuracy);
    EXPECT_EQ(plain.detected, traced.detected);
    EXPECT_EQ(plain.isolated, traced.isolated);
    EXPECT_EQ(plain.mean_ti_correct, traced.mean_ti_correct);
    expect_identical(plain.trace_decisions, traced.trace_decisions);
    EXPECT_GT(rec.trace().size(), 0u);
}

TEST(Determinism, MultihopUnchangedByRecorder) {
    // The relay transport is the layer with the densest instrumentation
    // (retransmissions, duplicate suppression); make sure it too is inert.
    exp::Scenario cfg = exp::Scenario::location_defaults();
    cfg.location.events = 25;
    cfg.location.pct_faulty = 0.3;
    cfg.location.multihop = true;
    cfg.location.radio_range = 30.0;
    cfg.seed = 99;
    cfg.location.keep_trace = true;

    const auto plain = exp::run_location_experiment(cfg);

    obs::Recorder rec;
    rec.trace().set_enabled(true);
    exp::Scenario instrumented = cfg;
    instrumented.recorder = &rec;
    const auto traced = exp::run_location_experiment(instrumented);

    EXPECT_EQ(plain.accuracy, traced.accuracy);
    expect_identical(plain.trace_decisions, traced.trace_decisions);
}

}  // namespace
}  // namespace tibfit
