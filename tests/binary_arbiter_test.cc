#include "core/binary_arbiter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "core/baseline_voter.h"

namespace tibfit::core {
namespace {

TrustParams params() {
    TrustParams p;
    p.lambda = 0.25;
    p.fault_rate = 0.1;
    p.removal_ti = 0.05;
    return p;
}

TEST(BinaryArbiter, FreshNodesReduceToMajority) {
    TrustManager tm(params());
    BinaryArbiter arb(tm, DecisionPolicy::TrustIndex);
    const std::vector<NodeId> all{0, 1, 2, 3, 4};

    auto d = arb.decide(all, std::vector<NodeId>{0, 1, 2}, false);
    EXPECT_TRUE(d.event_declared);
    EXPECT_DOUBLE_EQ(d.weight_reporters, 3.0);
    EXPECT_DOUBLE_EQ(d.weight_silent, 2.0);

    d = arb.decide(all, std::vector<NodeId>{0, 1}, false);
    EXPECT_FALSE(d.event_declared);
}

TEST(BinaryArbiter, TieGoesToReporters) {
    TrustManager tm(params());
    BinaryArbiter arb(tm, DecisionPolicy::TrustIndex);
    const std::vector<NodeId> all{0, 1, 2, 3};
    const auto d = arb.decide(all, std::vector<NodeId>{0, 1}, false);
    EXPECT_TRUE(d.event_declared);  // 2.0 vs 2.0 -> declare
}

TEST(BinaryArbiter, UpdatesRewardWinnersPenalizeLosers) {
    TrustManager tm(params());
    BinaryArbiter arb(tm, DecisionPolicy::TrustIndex);
    const std::vector<NodeId> all{0, 1, 2};
    arb.decide(all, std::vector<NodeId>{0, 1}, true);  // R wins
    EXPECT_DOUBLE_EQ(tm.v(0), 0.0);  // rewarded (floored)
    EXPECT_DOUBLE_EQ(tm.v(1), 0.0);
    EXPECT_NEAR(tm.v(2), 0.9, 1e-12);  // penalized
}

TEST(BinaryArbiter, NoUpdatesWhenDisabled) {
    TrustManager tm(params());
    BinaryArbiter arb(tm, DecisionPolicy::TrustIndex);
    arb.decide(std::vector<NodeId>{0, 1, 2}, std::vector<NodeId>{0, 1}, false);
    EXPECT_EQ(tm.tracked(), 0u);
}

TEST(BinaryArbiter, SmallTrustedGroupBeatsLargeDistrusted) {
    // The paper's headline: reliable minority outvotes unreliable majority.
    TrustManager tm(params());
    for (int i = 0; i < 10; ++i) {
        tm.judge_faulty(2);
        tm.judge_faulty(3);
        tm.judge_faulty(4);
    }
    BinaryArbiter arb(tm, DecisionPolicy::TrustIndex);
    const std::vector<NodeId> all{0, 1, 2, 3, 4};
    // The three distrusted nodes fabricate; the two trusted stay silent.
    const auto d = arb.decide(all, std::vector<NodeId>{2, 3, 4}, false);
    EXPECT_FALSE(d.event_declared);
    EXPECT_LT(d.weight_reporters, d.weight_silent);
}

TEST(BinaryArbiter, IsolatedNodesExcludedFromVote) {
    auto p = params();
    p.removal_ti = 0.5;
    TrustManager tm(p);
    for (int i = 0; i < 4; ++i) tm.judge_faulty(0);  // TI ~ 0.41 < 0.5
    ASSERT_TRUE(tm.is_isolated(0));

    BinaryArbiter arb(tm, DecisionPolicy::TrustIndex);
    const std::vector<NodeId> all{0, 1, 2};
    const auto d = arb.decide(all, std::vector<NodeId>{0}, false);
    EXPECT_TRUE(d.reporters.empty());  // isolated reporter not counted
    EXPECT_EQ(d.silent.size(), 2u);
    EXPECT_FALSE(d.event_declared);
}

TEST(BinaryArbiter, MajorityPolicyIgnoresTrust) {
    TrustManager tm(params());
    for (int i = 0; i < 10; ++i) tm.judge_faulty(0);
    BinaryArbiter arb(tm, DecisionPolicy::MajorityVote);
    const std::vector<NodeId> all{0, 1, 2};
    const auto d = arb.decide(all, std::vector<NodeId>{0, 1}, true);
    EXPECT_TRUE(d.event_declared);
    EXPECT_DOUBLE_EQ(d.weight_reporters, 2.0);  // unweighted
    // MajorityVote never touches the table even with updates "on".
    EXPECT_DOUBLE_EQ(tm.v(1), 0.0);
    EXPECT_DOUBLE_EQ(tm.v(2), 0.0);
}

TEST(BinaryArbiter, ReporterNotInNeighbourSetIgnored) {
    TrustManager tm(params());
    BinaryArbiter arb(tm, DecisionPolicy::TrustIndex);
    const std::vector<NodeId> all{0, 1};
    const auto d = arb.decide(all, std::vector<NodeId>{0, 7}, false);
    EXPECT_EQ(d.reporters.size(), 1u);  // node 7 is not an event neighbour
    EXPECT_EQ(d.reporters[0], 0u);
}

TEST(BinaryArbiter, DuplicateAndOutOfRangeReportersCountOnce) {
    TrustManager tm(params());
    BinaryArbiter arb(tm, DecisionPolicy::TrustIndex);
    // A wider call first: its marks must not leak into the next one.
    arb.decide(std::vector<NodeId>{0, 1, 2, 3, 40}, std::vector<NodeId>{3, 40}, false);
    const std::vector<NodeId> all{0, 1, 2, 3};
    const auto d =
        arb.decide(all, std::vector<NodeId>{1, 1, 2, 4, 40, kNoNode, 2}, false);
    EXPECT_EQ(d.reporters, (std::vector<NodeId>{1, 2}));
    EXPECT_EQ(d.silent, (std::vector<NodeId>{0, 3}));
    EXPECT_DOUBLE_EQ(d.weight_reporters, 2.0);
    EXPECT_DOUBLE_EQ(d.weight_silent, 2.0);
}

// One arbiter reused across calls with growing neighbour ids partitions
// exactly like a literal membership test of the reporter list.
TEST(BinaryArbiter, ReusedArbiterMatchesLiteralPartition) {
    TrustManager tm(params());
    for (NodeId n = 0; n < 300; n += 7) tm.judge_faulty(n);
    BinaryArbiter arb(tm, DecisionPolicy::TrustIndex);
    std::mt19937_64 rng(5);
    for (int call = 0; call < 300; ++call) {
        const NodeId span = 4 + static_cast<NodeId>(rng() % 40) + static_cast<NodeId>(call);
        std::vector<NodeId> neighbours, reporters;
        for (NodeId n = 0; n < span; ++n) {
            if (rng() % 3) neighbours.push_back(n);
        }
        // Duplicates, ids past the largest neighbour, and non-neighbours.
        for (std::size_t k = 0; k < span / 2; ++k) {
            reporters.push_back(static_cast<NodeId>(rng() % (span + span / 4 + 1)));
        }
        std::vector<NodeId> want_r, want_s;
        double w_r = 0.0, w_s = 0.0;
        for (NodeId n : neighbours) {
            const bool reported =
                std::find(reporters.begin(), reporters.end(), n) != reporters.end();
            (reported ? want_r : want_s).push_back(n);
            (reported ? w_r : w_s) += tm.ti(n);
        }
        const auto d = arb.decide(neighbours, reporters, false);
        ASSERT_EQ(d.reporters, want_r) << "call " << call;
        ASSERT_EQ(d.silent, want_s) << "call " << call;
        EXPECT_EQ(d.weight_reporters, w_r) << "call " << call;
        EXPECT_EQ(d.weight_silent, w_s) << "call " << call;
    }
}

TEST(BinaryArbiter, OutputsSorted) {
    TrustManager tm(params());
    BinaryArbiter arb(tm, DecisionPolicy::TrustIndex);
    const std::vector<NodeId> all{3, 1, 2, 0};
    const auto d = arb.decide(all, std::vector<NodeId>{3, 0}, false);
    ASSERT_EQ(d.reporters.size(), 2u);
    EXPECT_LT(d.reporters[0], d.reporters[1]);
    ASSERT_EQ(d.silent.size(), 2u);
    EXPECT_LT(d.silent[0], d.silent[1]);
}

TEST(BaselineVoter, ConvenienceMatchesArbiter) {
    const std::vector<NodeId> all{0, 1, 2, 3, 4};
    const auto d = majority_vote_binary(all, std::vector<NodeId>{0, 1, 2});
    EXPECT_TRUE(d.event_declared);
    const auto d2 = majority_vote_binary(all, std::vector<NodeId>{0});
    EXPECT_FALSE(d2.event_declared);
}

// Property: under TrustIndex the declared side always has the maximal CTI.
class ArbiterSplitSweep : public ::testing::TestWithParam<int> {};

TEST_P(ArbiterSplitSweep, WinnerHasMaxCti) {
    TrustManager tm(params());
    // Deterministically vary trust: node i gets i faults.
    for (NodeId n = 0; n < 8; ++n) {
        for (int k = 0; k < static_cast<int>(n); ++k) tm.judge_faulty(n);
    }
    BinaryArbiter arb(tm, DecisionPolicy::TrustIndex);
    std::vector<NodeId> all;
    for (NodeId n = 0; n < 8; ++n) all.push_back(n);
    std::vector<NodeId> reporters;
    const int mask = GetParam();
    for (NodeId n = 0; n < 8; ++n) {
        if (mask & (1 << n)) reporters.push_back(n);
    }
    const auto d = arb.decide(all, reporters, false);
    if (d.event_declared) {
        EXPECT_GE(d.weight_reporters, d.weight_silent);
    } else {
        EXPECT_GT(d.weight_silent, d.weight_reporters);
    }
    // Weights equal the CTI of the returned partitions.
    EXPECT_NEAR(d.weight_reporters, tm.cumulative_ti(d.reporters), 1e-12);
    EXPECT_NEAR(d.weight_silent, tm.cumulative_ti(d.silent), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(AllSplits, ArbiterSplitSweep,
                         ::testing::Values(0, 1, 3, 7, 15, 31, 63, 127, 255, 85, 170, 204));

}  // namespace
}  // namespace tibfit::core
