#include "core/location_arbiter.h"

#include <gtest/gtest.h>

#include <random>

#include "core/baseline_voter.h"

namespace tibfit::core {
namespace {

constexpr double kRs = 20.0;
constexpr double kRerr = 5.0;

TrustParams params() {
    TrustParams p;
    p.lambda = 0.25;
    p.fault_rate = 0.1;
    p.removal_ti = 0.05;
    return p;
}

EventReport report(NodeId n, util::Vec2 loc, double t = 0.0) {
    EventReport r;
    r.reporter = n;
    r.time = t;
    r.location = loc;
    return r;
}

/// 3x3 lattice with 10-unit spacing centred on (10, 10).
std::vector<util::Vec2> lattice() {
    std::vector<util::Vec2> p;
    for (int y = 0; y < 3; ++y) {
        for (int x = 0; x < 3; ++x) {
            p.push_back({static_cast<double>(10 * x), static_cast<double>(10 * y)});
        }
    }
    return p;
}

TEST(LocationArbiter, RejectsBadSensingRadius) {
    TrustManager tm(params());
    EXPECT_THROW(LocationArbiter(tm, DecisionPolicy::TrustIndex, 0.0, kRerr),
                 std::invalid_argument);
}

TEST(LocationArbiter, UnanimousReportsDeclareEventAtCg) {
    TrustManager tm(params());
    LocationArbiter arb(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    const auto pos = lattice();
    // Event at (10, 10): every node is within r_s. All report near it.
    std::vector<EventReport> reports;
    for (NodeId n = 0; n < 9; ++n) reports.push_back(report(n, {10.0 + 0.1 * n, 10.0}));
    const auto decisions = arb.decide(reports, pos, false);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_TRUE(decisions[0].event_declared);
    EXPECT_NEAR(decisions[0].location.x, 10.4, 1e-9);
    EXPECT_EQ(decisions[0].reporters.size(), 9u);
    EXPECT_TRUE(decisions[0].silent.empty());
}

TEST(LocationArbiter, LoneFabricatorLosesToSilentNeighbours) {
    TrustManager tm(params());
    LocationArbiter arb(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    const auto pos = lattice();
    const std::vector<EventReport> reports{report(4, {10, 10})};  // centre node lies
    const auto decisions = arb.decide(reports, pos, true);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_FALSE(decisions[0].event_declared);  // 1 TI vs 8 silent TI
    EXPECT_GT(tm.v(4), 0.0);                    // fabricator penalized
    EXPECT_DOUBLE_EQ(tm.v(0), 0.0);             // silent neighbours rewarded (floor)
}

TEST(LocationArbiter, FarReporterThrownOutAndPenalized) {
    TrustManager tm(params());
    LocationArbiter arb(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    // One node very far from the claimed location.
    std::vector<util::Vec2> pos = lattice();
    pos.push_back({200, 200});  // node 9
    std::vector<EventReport> reports;
    for (NodeId n = 0; n < 9; ++n) reports.push_back(report(n, {10, 10}));
    reports.push_back(report(9, {10.2, 10.0}));  // claims the same event from 260 units away
    const auto decisions = arb.decide(reports, pos, true);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_TRUE(decisions[0].event_declared);
    ASSERT_EQ(decisions[0].thrown_out.size(), 1u);
    EXPECT_EQ(decisions[0].thrown_out[0], 9u);
    EXPECT_GT(tm.v(9), 0.0);  // false alarm from implausible position
}

TEST(LocationArbiter, DuplicateReportsKeepEarliest) {
    TrustManager tm(params());
    LocationArbiter arb(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    const auto pos = lattice();
    const std::vector<EventReport> reports{
        report(4, {10, 10}, 0.0),
        report(4, {90, 90}, 0.5),  // duplicate from the same node: ignored
    };
    const auto decisions = arb.decide(reports, pos, false);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_NEAR(decisions[0].location.x, 10.0, 1e-9);
}

TEST(LocationArbiter, ReportWithoutLocationIgnored) {
    TrustManager tm(params());
    LocationArbiter arb(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    const auto pos = lattice();
    EventReport r;
    r.reporter = 0;
    r.time = 0.0;  // no location set
    const auto decisions = arb.decide(std::vector<EventReport>{r}, pos, false);
    EXPECT_TRUE(decisions.empty());
}

TEST(LocationArbiter, UnknownReporterIgnored) {
    TrustManager tm(params());
    LocationArbiter arb(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    const auto pos = lattice();
    const auto decisions =
        arb.decide(std::vector<EventReport>{report(42, {10, 10})}, pos, false);
    EXPECT_TRUE(decisions.empty());
}

TEST(LocationArbiter, TwoConcurrentEventsBothDecided) {
    TrustManager tm(params());
    LocationArbiter arb(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    std::vector<util::Vec2> pos;
    for (int i = 0; i < 4; ++i) pos.push_back({static_cast<double>(5 * i), 0.0});
    for (int i = 0; i < 4; ++i) pos.push_back({100.0 + 5 * i, 0.0});
    std::vector<EventReport> reports;
    for (NodeId n = 0; n < 4; ++n) reports.push_back(report(n, {7, 0}));
    for (NodeId n = 4; n < 8; ++n) reports.push_back(report(n, {107, 0}));
    const auto decisions = arb.decide(reports, pos, false);
    ASSERT_EQ(decisions.size(), 2u);
    EXPECT_TRUE(decisions[0].event_declared);
    EXPECT_TRUE(decisions[1].event_declared);
}

TEST(LocationArbiter, DistrustedMajorityLosesToTrustedMinority) {
    TrustManager tm(params());
    // Nodes 0-5 heavily distrusted.
    for (NodeId n = 0; n < 6; ++n) {
        for (int k = 0; k < 12; ++k) tm.judge_faulty(n);
    }
    LocationArbiter arb(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    std::vector<util::Vec2> pos;
    for (int i = 0; i < 9; ++i) pos.push_back({static_cast<double>(2 * i), 0.0});
    // The six distrusted nodes fabricate an event; 3 trusted stay silent.
    std::vector<EventReport> reports;
    for (NodeId n = 0; n < 6; ++n) reports.push_back(report(n, {8, 0}));
    const auto decisions = arb.decide(reports, pos, false);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_FALSE(decisions[0].event_declared);
}

TEST(LocationArbiter, BaselineAcceptsWhatTrustRejects) {
    TrustManager tm(params());
    for (NodeId n = 0; n < 6; ++n) {
        for (int k = 0; k < 12; ++k) tm.judge_faulty(n);
    }
    std::vector<util::Vec2> pos;
    for (int i = 0; i < 9; ++i) pos.push_back({static_cast<double>(2 * i), 0.0});
    std::vector<EventReport> reports;
    for (NodeId n = 0; n < 6; ++n) reports.push_back(report(n, {8, 0}));

    const auto baseline = majority_vote_location(reports, pos, kRs, kRerr);
    ASSERT_EQ(baseline.size(), 1u);
    EXPECT_TRUE(baseline[0].event_declared);  // 6 vs 3 by headcount
}

TEST(LocationArbiter, IsolatedNodesInvisible) {
    auto p = params();
    p.removal_ti = 0.5;
    TrustManager tm(p);
    for (int k = 0; k < 6; ++k) tm.judge_faulty(4);
    ASSERT_TRUE(tm.is_isolated(4));
    LocationArbiter arb(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    const auto pos = lattice();
    // An isolated node has been removed from the network (Section 3.1):
    // its report is discarded before clustering, so no candidate event
    // even forms.
    const auto decisions =
        arb.decide(std::vector<EventReport>{report(4, {10, 10})}, pos, false);
    EXPECT_TRUE(decisions.empty());

    // A mixed window still decides, with the isolated node invisible.
    const auto mixed = arb.decide(
        std::vector<EventReport>{report(4, {10, 10}), report(0, {10.2, 10.1})}, pos, false);
    ASSERT_EQ(mixed.size(), 1u);
    ASSERT_EQ(mixed[0].reporters.size(), 1u);
    EXPECT_EQ(mixed[0].reporters[0], 0u);
}

TEST(LocationArbiter, TrustWeightedLocationIgnoresDistrustedDrag) {
    TrustManager tm(params());
    // Node 3 is heavily distrusted (but not isolated).
    for (int k = 0; k < 8; ++k) tm.judge_faulty(3);
    ASSERT_LT(tm.ti(3), 0.2);
    ASSERT_FALSE(tm.is_isolated(3));

    LocationArbiter plain(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    LocationArbiter weighted(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    weighted.set_trust_weighted_location(true);

    const auto pos = lattice();
    // Three trusted nodes agree on (10, 10); the distrusted node reports
    // 4 units off, dragging a plain centroid by a full unit.
    const std::vector<EventReport> reports{
        report(0, {10, 10}), report(1, {10, 10}), report(2, {10, 10}),
        report(3, {14, 10}),
    };
    const auto p = plain.decide(reports, pos, false);
    const auto w = weighted.decide(reports, pos, false);
    ASSERT_EQ(p.size(), 1u);
    ASSERT_EQ(w.size(), 1u);
    EXPECT_NEAR(p[0].location.x, 11.0, 1e-9);   // plain centroid dragged
    EXPECT_LT(w[0].location.x, 10.25);          // weighted estimate barely moves
}

TEST(LocationArbiter, TrustWeightedFallsBackWhenWeightVanishes) {
    // All-distrusted cluster: total weight ~ 0 -> plain cg retained, no NaN.
    auto pr = params();
    pr.removal_ti = 0.0;  // keep them un-isolated
    TrustManager tm(pr);
    for (NodeId n = 0; n < 2; ++n) {
        for (int k = 0; k < 400; ++k) tm.judge_faulty(n);
    }
    LocationArbiter arb(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    arb.set_trust_weighted_location(true);
    const auto pos = lattice();
    const std::vector<EventReport> reports{report(0, {10, 10}), report(1, {12, 10})};
    const auto d = arb.decide(reports, pos, false);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_NEAR(d[0].location.x, 11.0, 1e-9);
    EXPECT_FALSE(std::isnan(d[0].location.y));
}

TEST(LocationArbiter, NoReportersMeansNoEvent) {
    // A cluster whose every reporter is isolated/thrown out cannot declare.
    TrustManager tm(params());
    LocationArbiter arb(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    std::vector<util::Vec2> pos{{200, 200}};  // only node is far away
    const auto decisions =
        arb.decide(std::vector<EventReport>{report(0, {10, 10})}, pos, false);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_FALSE(decisions[0].event_declared);
    EXPECT_EQ(decisions[0].thrown_out.size(), 1u);
}

TEST(LocationArbiter, DuplicateReporterCountedOnce) {
    TrustManager tm(params());
    LocationArbiter arb(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    const auto pos = lattice();
    // Node 4 reports three times (the later copies are dropped before
    // clustering); nodes 3 and 5 once each.
    const std::vector<EventReport> reports{report(4, {10, 10}), report(3, {10, 10}),
                                           report(4, {10, 10}), report(5, {10, 10}),
                                           report(4, {10, 10})};
    const auto d = arb.decide(reports, pos, false);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].reporters, (std::vector<NodeId>{3, 4, 5}));
    EXPECT_DOUBLE_EQ(d[0].weight_reporters, 3.0);
    EXPECT_EQ(d[0].silent.size(), 6u);
}

TEST(LocationArbiter, ReporterAtOrPastSpanIgnored) {
    TrustManager tm(params());
    LocationArbiter arb(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    const auto pos = lattice();  // ids 0..8
    // A larger span first: its marks must not leak into the smaller one.
    std::vector<util::Vec2> wide = pos;
    for (int i = 0; i < 4; ++i) wide.push_back({10, 10});
    ASSERT_EQ(arb.decide(std::vector<EventReport>{report(9, {10, 10}), report(12, {10, 10})},
                         wide, false)
                  .size(),
              1u);
    const std::vector<EventReport> reports{report(9, {10, 10}), report(12, {10, 10}),
                                           report(1000, {10, 10}), report(4, {10, 10})};
    const auto d = arb.decide(reports, pos, false);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].reporters, (std::vector<NodeId>{4}));
    EXPECT_EQ(d[0].silent.size(), 8u);
}

TEST(LocationArbiter, ReporterOutsideEventNeighbourhoodThrownOut) {
    TrustManager tm(params());
    LocationArbiter arb(tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    std::vector<util::Vec2> pos = lattice();
    pos.push_back({60, 60});  // node 9: far from the event
    pos.push_back({90, 90});  // node 10: silent and far, not an event neighbour
    std::vector<EventReport> reports;
    for (NodeId n = 0; n < 9; ++n) reports.push_back(report(n, {10, 10}));
    reports.push_back(report(9, {10.5, 10}));
    const auto d = arb.decide(reports, pos, false);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].reporters.size(), 9u);
    EXPECT_EQ(d[0].thrown_out, (std::vector<NodeId>{9}));
    EXPECT_TRUE(d[0].silent.empty());  // node 10 is out of r_s
}

// One arbiter reused across windows whose node span grows and shrinks must
// decide exactly like a fresh arbiter per window: no mark may outlive its
// call.
TEST(LocationArbiter, ReusedArbiterMatchesFreshOne) {
    TrustManager reused_tm(params()), fresh_tm(params());
    LocationArbiter reused(reused_tm, DecisionPolicy::TrustIndex, kRs, kRerr);
    std::mt19937_64 rng(11);
    const auto coord = [&rng](double extent) {
        return extent * static_cast<double>(rng() % 1000) / 1000.0;
    };
    for (int call = 0; call < 300; ++call) {
        const std::size_t n = 5 + static_cast<std::size_t>(rng() % 60) + call / 3;
        std::vector<util::Vec2> pos;
        for (std::size_t i = 0; i < n; ++i) pos.push_back({coord(100), coord(100)});
        std::vector<EventReport> reports;
        const int events = 1 + static_cast<int>(rng() % 3);
        for (int e = 0; e < events; ++e) {
            const util::Vec2 at{coord(100), coord(100)};
            const std::size_t count = rng() % 12;
            for (std::size_t k = 0; k < count; ++k) {
                // Ids up to 10% past the span; duplicates are common.
                const auto id = static_cast<NodeId>(rng() % (n + n / 10 + 1));
                reports.push_back(report(id, {at.x + coord(4), at.y + coord(4)}));
            }
        }
        LocationArbiter fresh(fresh_tm, DecisionPolicy::TrustIndex, kRs, kRerr);
        const auto want = fresh.decide(reports, pos, true);
        const auto got = reused.decide(reports, pos, true);
        ASSERT_EQ(got.size(), want.size()) << "call " << call;
        for (std::size_t i = 0; i < got.size(); ++i) {
            EXPECT_EQ(got[i].event_declared, want[i].event_declared) << "call " << call;
            EXPECT_EQ(got[i].location.x, want[i].location.x) << "call " << call;
            EXPECT_EQ(got[i].location.y, want[i].location.y) << "call " << call;
            EXPECT_EQ(got[i].weight_reporters, want[i].weight_reporters) << "call " << call;
            EXPECT_EQ(got[i].weight_silent, want[i].weight_silent) << "call " << call;
            EXPECT_EQ(got[i].reporters, want[i].reporters) << "call " << call;
            EXPECT_EQ(got[i].silent, want[i].silent) << "call " << call;
            EXPECT_EQ(got[i].thrown_out, want[i].thrown_out) << "call " << call;
        }
        if (HasFailure()) return;
    }
    for (NodeId n = 0; n < 200; ++n) EXPECT_EQ(reused_tm.v(n), fresh_tm.v(n)) << n;
}

}  // namespace
}  // namespace tibfit::core
