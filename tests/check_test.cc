// tibfit::check — differential oracle, runtime invariants, and the
// trust/clusterer edge-case regressions that shipped with them.
#include <cmath>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "check/config.h"
#include "check/reference.h"
#include "check/shadow_arbiter.h"
#include "core/decision_engine.h"
#include "core/event_clusterer.h"
#include "core/trust.h"
#include "exp/binary_experiment.h"
#include "exp/location_experiment.h"
#include "exp/scenario.h"
#include "obs/names.h"
#include "obs/recorder.h"
#include "util/invariant.h"
#include "util/rng.h"

namespace tibfit {
namespace {

// ---------------------------------------------------------------------------
// TIBFIT_CHECK machinery

TEST(InvariantTest, OffEvaluatesNothing) {
    ASSERT_EQ(util::invariant_action(), util::InvariantAction::Off);
    int evaluations = 0;
    TIBFIT_CHECK((++evaluations, false), "never built");
    EXPECT_EQ(evaluations, 0);
}

TEST(InvariantTest, CountModeCountsAndContinues) {
    util::ScopedInvariantAction guard(util::InvariantAction::Count);
    const auto before = util::invariant_violations();
    TIBFIT_CHECK(1 + 1 == 3, "arithmetic drifted");
    EXPECT_EQ(util::invariant_violations(), before + 1);
    TIBFIT_CHECK(1 + 1 == 2, "fine");
    EXPECT_EQ(util::invariant_violations(), before + 1);
}

TEST(InvariantTest, ThrowModeThrowsLogicError) {
    util::ScopedInvariantAction guard(util::InvariantAction::Throw);
    EXPECT_THROW(TIBFIT_CHECK(false, "boom"), std::logic_error);
}

TEST(InvariantTest, ScopeRestoresPreviousAction) {
    {
        util::ScopedInvariantAction guard(util::InvariantAction::Count);
        EXPECT_TRUE(util::invariant_checks_on());
    }
    EXPECT_FALSE(util::invariant_checks_on());
}

// Trials that overlap under --jobs N each open their own scope. Here this
// thread (A) opens a Throw scope, thread B opens a Count scope, then A's
// scope closes: B's checks must still count, and A must be back to Off.
TEST(InvariantTest, ScopeOnOneThreadLeavesOtherThreadsAction) {
    std::promise<void> a_opened, b_opened, a_closed;
    std::uint64_t counted = 0;
    util::InvariantAction b_saw = util::InvariantAction::Off;
    std::thread b([&] {
        a_opened.get_future().wait();
        util::ScopedInvariantAction guard(util::InvariantAction::Count);
        b_opened.set_value();
        a_closed.get_future().wait();
        b_saw = util::invariant_action();
        const auto before = util::invariant_violations();
        TIBFIT_CHECK(false, "thread B's own Count scope");
        counted = util::invariant_violations() - before;
    });
    {
        util::ScopedInvariantAction guard(util::InvariantAction::Throw);
        a_opened.set_value();
        b_opened.get_future().wait();
        EXPECT_EQ(util::invariant_action(), util::InvariantAction::Throw);
    }
    a_closed.set_value();
    b.join();
    EXPECT_EQ(b_saw, util::InvariantAction::Count);
    EXPECT_EQ(counted, 1u);
    EXPECT_EQ(util::invariant_action(), util::InvariantAction::Off);
}

// ---------------------------------------------------------------------------
// check::Mode plumbing

TEST(CheckConfigTest, ModeNamesRoundTrip) {
    for (const check::Mode m : {check::Mode::Off, check::Mode::Shadow, check::Mode::Assert}) {
        exp::Scenario s = exp::Scenario::binary_defaults();
        s.check.mode = m;
        EXPECT_EQ(exp::scenario_from_json_text(exp::to_json(s)).check.mode, m)
            << check::mode_name(m);
    }
    EXPECT_THROW(exp::scenario_from_json_text(R"({"check": {"mode": "verify"}})"),
                 std::runtime_error);
}

TEST(CheckConfigTest, ScenarioSerializesCheckMode) {
    exp::Scenario s = exp::Scenario::binary_defaults();
    s.check.mode = check::Mode::Shadow;
    const exp::Scenario back = exp::scenario_from_json_text(exp::to_json(s));
    EXPECT_EQ(back.check.mode, check::Mode::Shadow);
    // A scenario JSON without a "check" block stays off.
    EXPECT_EQ(exp::scenario_from_json_text(R"({"kind": "binary"})").check.mode,
              check::Mode::Off);
}

// ---------------------------------------------------------------------------
// Trust edge cases

TEST(TrustParamsTest, ValidateRejectsOutOfRangeValues) {
    core::TrustParams ok;
    EXPECT_TRUE(ok.validate().empty());
    core::TrustParams bad_lambda;
    bad_lambda.lambda = 0.0;
    EXPECT_EQ(bad_lambda.validate().size(), 1u);
    core::TrustParams bad_removal;
    bad_removal.removal_ti = 1.0;  // TI never exceeds 1: everything would isolate
    EXPECT_EQ(bad_removal.validate().size(), 1u);
    bad_removal.removal_ti = -0.1;
    EXPECT_EQ(bad_removal.validate().size(), 1u);
    bad_removal.removal_ti = 0.999;
    EXPECT_TRUE(bad_removal.validate().empty());
}

TEST(TrustParamsTest, ScenarioValidateSurfacesTrustErrors) {
    exp::Scenario s = exp::Scenario::binary_defaults();
    s.engine.trust.removal_ti = 2.0;
    const auto errors = s.validate();
    ASSERT_FALSE(errors.empty());
    bool found = false;
    for (const auto& e : errors) found = found || e.find("removal_ti") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST(TrustQuarantineTest, IsolatesAtValidThreshold) {
    core::TrustParams p;
    p.removal_ti = 0.05;
    core::TrustManager t(p);
    t.judge_correct(7);  // track the node with a clean record
    ASSERT_FALSE(t.is_isolated(7));
    t.quarantine(7);
    EXPECT_TRUE(t.is_isolated(7));
    EXPECT_LT(t.ti(7), p.removal_ti);
}

TEST(TrustQuarantineTest, ClampedForDegenerateRemovalTi) {
    // removal_ti >= 2 used to make -log(removal_ti/2) non-positive, turning
    // quarantine() into a silent no-op. The clamp pins the target below
    // TI = 0.5 regardless.
    core::TrustParams p;
    p.removal_ti = 2.5;  // rejected by validate(), but constructible
    core::TrustManager t(p);
    t.judge_correct(3);
    ASSERT_EQ(t.ti(3), 1.0);
    t.quarantine(3);
    EXPECT_LT(t.ti(3), 1.0);  // the penalty landed
    EXPECT_LE(t.ti(3), 0.5 + 1e-12);
}

TEST(TrustRestoreTest, RestorePreservesRecorder) {
    obs::Recorder rec;
    core::TrustManager t;
    t.set_recorder(&rec);
    t.judge_faulty(1);
    const auto c1 = rec.metrics().counter(obs::metric::kTrustPenalties).value();
    ASSERT_GE(c1, 1u);

    core::TrustManager back = core::TrustManager::restore(t.checkpoint(), &rec);
    EXPECT_EQ(back.export_v(), t.export_v());
    back.judge_faulty(2);
    EXPECT_EQ(rec.metrics().counter(obs::metric::kTrustPenalties).value(), c1 + 1);
}

TEST(TrustRestoreTest, EngineReattachesRecorderOnAdoption) {
    obs::Recorder rec;
    core::DecisionEngine engine(core::EngineConfig{});
    engine.set_recorder(&rec);
    // A freshly restored table arrives detached; adoption must re-attach.
    engine.adopt_trust(core::TrustManager::restore(core::TrustManager().checkpoint()));
    engine.trust().judge_faulty(4);
    EXPECT_EQ(rec.metrics().counter(obs::metric::kTrustPenalties).value(), 1u);
}

TEST(TrustRestoreTest, FailoverKeepsCountingPenalties) {
    // Warm CH failover restores the checkpointed trust table into the
    // standby. A regression once dropped the recorder on restore, so every
    // post-failover judgement went uncounted: trust.penalties froze at its
    // pre-kill value. Run the same campaign twice — full event schedule vs
    // truncated before the kill — and require the full run to keep
    // counting past the handoff.
    const auto penalties = [](std::size_t events) {
        exp::Scenario s = exp::Scenario::binary_defaults();
        s.seed = 20050628;
        s.binary.events = events;
        s.binary.pct_faulty = 0.5;
        s.faults.missed_alarm_rate = 0.5;
        inject::ChFailover f;
        f.kill_at = 300.0;  // events fire at t = 5 + 10 * i
        f.warm_handoff = true;
        s.campaign.failovers.push_back(f);
        obs::Recorder rec;
        s.recorder = &rec;
        exp::run_binary_experiment(s);
        return rec.metrics().counter(obs::metric::kTrustPenalties).value();
    };
    const auto before_kill = penalties(25);  // last event at t = 245
    const auto full = penalties(60);         // 30+ events adjudicated post-failover
    EXPECT_GT(before_kill, 0u);
    EXPECT_GT(full, before_kill);
}

// ---------------------------------------------------------------------------
// Clusterer round cap

TEST(ClustererTest, RoundCapTruncationCountsAndWarns) {
    // Seeds (0,0) and (5.2,0); (2.6,4) joins the first cluster, dragging
    // its cg to (1.3,2) — within r_error of the second centre, so round 0
    // merges and a second round is needed to converge. max_rounds=1 stops
    // short of that.
    const std::vector<util::Vec2> points = {{0.0, 0.0}, {5.2, 0.0}, {2.6, 4.0}};
    obs::Recorder rec;

    core::EventClusterer capped(/*r_error=*/5.0, /*max_rounds=*/1);
    capped.set_recorder(&rec);
    const auto clusters = capped.cluster(points);
    EXPECT_FALSE(clusters.empty());
    EXPECT_EQ(rec.metrics().counter(obs::metric::kClustererRoundCapHits).value(), 1u);

    core::EventClusterer relaxed(/*r_error=*/5.0);
    relaxed.set_recorder(&rec);
    const auto converged = relaxed.cluster(points);
    ASSERT_EQ(converged.size(), 1u);  // everything merges into one event
    EXPECT_EQ(rec.metrics().counter(obs::metric::kClustererRoundCapHits).value(), 1u);
}

// ---------------------------------------------------------------------------
// Differential oracle: lockstep property tests

class BinaryLockstepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BinaryLockstepTest, RandomStreamsNeverDiverge) {
    util::ScopedInvariantAction guard(util::InvariantAction::Count);
    const auto violations_before = util::invariant_violations();
    util::Rng rng(GetParam());
    for (double compromised : {0.2, 0.5, 0.8}) {
        core::EngineConfig cfg;
        cfg.trust.lambda = 0.1;
        cfg.trust.fault_rate = 0.01;
        cfg.trust.removal_ti = rng.chance(0.5) ? 0.05 : 0.0;
        core::DecisionEngine engine(cfg);
        check::ShadowArbiter shadow(cfg);
        engine.set_checker(&shadow);

        const std::size_t n = 10;
        std::vector<core::NodeId> neighbours;
        for (std::size_t i = 0; i < n; ++i) neighbours.push_back(static_cast<core::NodeId>(i));
        for (int round = 0; round < 200; ++round) {
            std::vector<core::NodeId> reporters;
            for (std::size_t i = 0; i < n; ++i) {
                const bool faulty = static_cast<double>(i) < compromised * n;
                const double report_p = faulty ? 0.5 : 0.95;
                if (rng.chance(report_p)) reporters.push_back(static_cast<core::NodeId>(i));
            }
            engine.decide_binary(neighbours, reporters);
        }
        EXPECT_EQ(shadow.divergences(), 0u) << shadow.divergence_log().front();
        EXPECT_GT(shadow.decisions_checked(), 0u);
    }
    EXPECT_EQ(util::invariant_violations(), violations_before);
}

class LocationLockstepTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LocationLockstepTest, RandomStreamsNeverDiverge) {
    util::ScopedInvariantAction guard(util::InvariantAction::Count);
    const auto violations_before = util::invariant_violations();
    util::Rng rng(GetParam());
    for (double compromised : {0.2, 0.5, 0.8}) {
        core::EngineConfig cfg;
        cfg.sensing_radius = 20.0;
        cfg.r_error = 5.0;
        cfg.trust.lambda = 0.25;
        cfg.trust.fault_rate = 0.1;
        cfg.trust.removal_ti = 0.05;
        cfg.trust_weighted_location = rng.chance(0.5);
        core::DecisionEngine engine(cfg);
        check::ShadowArbiter shadow(cfg);
        engine.set_checker(&shadow);

        const std::size_t n = 25;
        std::vector<util::Vec2> positions;
        for (std::size_t i = 0; i < n; ++i) {
            positions.push_back({10.0 * static_cast<double>(i % 5),
                                 10.0 * static_cast<double>(i / 5)});
        }
        for (int round = 0; round < 60; ++round) {
            const util::Vec2 event = rng.point_in_rect(40.0, 40.0);
            std::vector<core::EventReport> reports;
            for (std::size_t i = 0; i < n; ++i) {
                if ((positions[i] - event).norm() > cfg.sensing_radius) continue;
                const bool faulty = static_cast<double>(i) < compromised * n;
                if (faulty && rng.chance(0.25)) continue;  // dropper
                core::EventReport r;
                r.reporter = static_cast<core::NodeId>(i);
                r.time = static_cast<double>(round);
                r.location = event + rng.gaussian_offset(faulty ? 4.25 : 1.6);
                reports.push_back(r);
            }
            engine.decide_location(reports, positions);
        }
        EXPECT_EQ(shadow.divergences(), 0u) << shadow.divergence_log().front();
        EXPECT_GT(shadow.decisions_checked(), 0u);
    }
    EXPECT_EQ(util::invariant_violations(), violations_before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BinaryLockstepTest, ::testing::Range<std::uint64_t>(1, 9));
INSTANTIATE_TEST_SUITE_P(Seeds, LocationLockstepTest, ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// The oracle actually fires: perturb the optimised path's outputs

TEST(ShadowArbiterTest, TamperedDecisionDiverges) {
    core::EngineConfig cfg;
    core::DecisionEngine engine(cfg);
    check::ShadowArbiter shadow(cfg);
    engine.set_checker(&shadow);
    const std::vector<core::NodeId> neighbours = {0, 1, 2, 3};
    const std::vector<core::NodeId> reporters = {0, 1, 2};
    core::BinaryDecision d = engine.decide_binary(neighbours, reporters);
    ASSERT_EQ(shadow.divergences(), 0u);

    d.event_declared = !d.event_declared;  // simulate a buggy optimisation
    shadow.on_binary_decision(neighbours, reporters, /*apply=*/true, d, engine.trust());
    EXPECT_GT(shadow.divergences(), 0u);
    EXPECT_FALSE(shadow.divergence_log().empty());
}

TEST(ShadowArbiterTest, TamperedTrustTableDiverges) {
    core::EngineConfig cfg;
    core::DecisionEngine engine(cfg);
    check::ShadowArbiter shadow(cfg);
    engine.set_checker(&shadow);
    const std::vector<core::NodeId> neighbours = {0, 1, 2, 3};
    engine.decide_binary(neighbours, neighbours);
    ASSERT_EQ(shadow.divergences(), 0u);

    // Mutate the live table behind the oracle's back; the next decision's
    // trust cross-check must notice.
    engine.trust().judge_faulty(2);
    engine.decide_binary(neighbours, neighbours);
    EXPECT_GT(shadow.divergences(), 0u);
}

TEST(ShadowArbiterTest, AssertModeThrowsOnDivergence) {
    core::EngineConfig cfg;
    core::DecisionEngine engine(cfg);
    check::ShadowArbiter shadow(cfg, /*abort_on_divergence=*/true);
    engine.set_checker(&shadow);
    const std::vector<core::NodeId> neighbours = {0, 1, 2};
    core::BinaryDecision d = engine.decide_binary(neighbours, neighbours);
    d.weight_reporters += 1.0;
    EXPECT_THROW(
        shadow.on_binary_decision(neighbours, neighbours, /*apply=*/true, d, engine.trust()),
        std::logic_error);
}

// ---------------------------------------------------------------------------
// Full-scenario smokes through the exp layer

TEST(CheckScenarioTest, BinaryShadowRunIsDivergenceFree) {
    exp::Scenario s = exp::Scenario::binary_defaults();
    s.seed = 20050628;
    s.binary.events = 60;
    s.binary.pct_faulty = 0.6;
    s.check.mode = check::Mode::Shadow;
    const auto r = exp::run_binary_experiment(s);
    EXPECT_GT(r.checked_decisions, 0u);
    EXPECT_EQ(r.oracle_divergences, 0u);
    EXPECT_FALSE(util::invariant_checks_on());  // run-scoped, restored after
}

TEST(CheckScenarioTest, LocationShadowRunIsDivergenceFree) {
    exp::Scenario s = exp::Scenario::location_defaults();
    s.seed = 20050628;
    s.location.events = 40;
    s.location.pct_faulty = 0.4;
    s.check.mode = check::Mode::Shadow;
    const auto r = exp::run_location_experiment(s);
    EXPECT_GT(r.checked_decisions, 0u);
    EXPECT_EQ(r.oracle_divergences, 0u);
    EXPECT_FALSE(util::invariant_checks_on());
}

TEST(CheckScenarioTest, OffModeReportsNothing) {
    exp::Scenario s = exp::Scenario::binary_defaults();
    s.seed = 7;
    s.binary.events = 20;
    const auto r = exp::run_binary_experiment(s);
    EXPECT_EQ(r.checked_decisions, 0u);
    EXPECT_EQ(r.oracle_divergences, 0u);
}

TEST(CheckScenarioTest, ShadowDoesNotPerturbResults) {
    exp::Scenario s = exp::Scenario::binary_defaults();
    s.seed = 20050628;
    s.binary.events = 60;
    s.binary.pct_faulty = 0.6;
    const auto plain = exp::run_binary_experiment(s);
    s.check.mode = check::Mode::Shadow;
    const auto shadowed = exp::run_binary_experiment(s);
    EXPECT_EQ(plain.accuracy, shadowed.accuracy);
    EXPECT_EQ(plain.detected, shadowed.detected);
    EXPECT_EQ(plain.mean_ti_correct, shadowed.mean_ti_correct);
    EXPECT_EQ(plain.mean_ti_faulty, shadowed.mean_ti_faulty);
}

}  // namespace
}  // namespace tibfit
