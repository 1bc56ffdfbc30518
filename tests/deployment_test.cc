// Self-organizing deployment integration tests: LEACH-elected heads,
// energy-driven rotation, trust continuity through the base station.
#include "exp/deployment.h"

#include <gtest/gtest.h>

#include <set>

namespace tibfit::exp {
namespace {

/// Table-2 trust (lambda 0.25, f_r 0.1) on a 100x100 field; correct
/// sensors miss 1% of events.
Scenario scenario(std::uint64_t seed) {
    Scenario s = Scenario::location_defaults();
    s.seed = seed;
    s.faults.natural_error_rate = 0.01;
    return s;
}

DeploymentConfig config() {
    DeploymentConfig c;
    c.round_duration = 100.0;
    c.leach.ch_fraction = 0.08;
    c.leach.ti_threshold = 0.5;
    return c;
}

/// 6x6 lattice, spacing ~16.7: a field several clusters wide.
std::vector<util::Vec2> lattice(std::size_t side = 6, double field = 100.0) {
    std::vector<util::Vec2> p;
    const double spacing = field / static_cast<double>(side);
    for (std::size_t i = 0; i < side * side; ++i) {
        p.push_back({spacing * (0.5 + static_cast<double>(i % side)),
                     spacing * (0.5 + static_cast<double>(i / side))});
    }
    return p;
}

/// The first `faulty_first` of `n` nodes are level-0 faulty.
std::vector<bool> faulty(std::size_t n, std::size_t faulty_first = 0) {
    std::vector<bool> out(n, false);
    for (std::size_t i = 0; i < faulty_first && i < n; ++i) out[i] = true;
    return out;
}

TEST(Deployment, RejectsSizeMismatch) {
    auto pos = lattice();
    EXPECT_THROW(Deployment(scenario(1), config(), pos, faulty(3)),
                 std::invalid_argument);
}

TEST(Deployment, ElectsHeadsEveryRound) {
    auto pos = lattice();
    Deployment d(scenario(2), config(), pos, faulty(pos.size()));
    d.run(450.0);
    ASSERT_GE(d.rounds().size(), 4u);
    for (const auto& r : d.rounds()) {
        EXPECT_GE(r.heads.size(), 1u) << "round " << r.round;
        EXPECT_EQ(r.alive, pos.size());
    }
}

TEST(Deployment, LeadershipRotates) {
    auto pos = lattice();
    Deployment d(scenario(3), config(), pos, faulty(pos.size()));
    d.run(1000.0);
    std::set<sim::ProcessId> ever_head;
    for (const auto& r : d.rounds()) {
        for (auto h : r.heads) ever_head.insert(h);
    }
    // Over 10 rounds at 8% CH fraction, many distinct nodes should serve.
    EXPECT_GE(ever_head.size(), 8u);
}

TEST(Deployment, DetectsEventsEndToEnd) {
    auto pos = lattice();
    Deployment d(scenario(4), config(), pos, faulty(pos.size()));
    d.generator().schedule_events(30, 20.0, 10.0);
    d.run(650.0);
    // Self-organized clusters are lossier than the dedicated-CH harness
    // (events near cluster boundaries split their reports), but the bulk
    // of events must still be detected and located.
    EXPECT_GE(d.detected_events() * 10, d.generator().history().size() * 7);
}

// The scenario's channel reaches the sensors: with every report lost, no
// head ever decides, while the reliable CH control traffic still elects.
TEST(Deployment, ChannelLossComesFromTheScenario) {
    auto pos = lattice();
    Scenario s = scenario(4);
    s.channel.drop_probability = 1.0;
    Deployment d(s, config(), pos, faulty(pos.size()));
    d.generator().schedule_events(30, 20.0, 10.0);
    d.run(650.0);
    EXPECT_TRUE(d.decisions().empty());
    EXPECT_EQ(d.detected_events(), 0u);
    EXPECT_GE(d.rounds().size(), 6u);
}

// check.mode=assert attaches the lockstep oracle to every co-located CH
// role: it follows each leadership's archive hand-off and would throw on
// the first divergence or invariant violation.
TEST(Deployment, AssertModeOracleFollowsRotation) {
    auto pos = lattice();
    Scenario s = scenario(7);
    s.check.mode = check::Mode::Assert;
    Deployment d(s, config(), pos, faulty(pos.size(), 12));
    d.generator().schedule_events(60, 15.0, 12.0);
    EXPECT_NO_THROW(d.run(950.0));
    EXPECT_FALSE(d.decisions().empty());
}

TEST(Deployment, RejectsCampaign) {
    auto pos = lattice();
    Scenario s = scenario(1);
    s.campaign.compromises.push_back({100.0, 0.5});
    EXPECT_THROW(Deployment(s, config(), pos, faulty(pos.size())), std::invalid_argument);
}

TEST(Deployment, EnergyDrainsOverTime) {
    auto pos = lattice();
    auto cfg = config();
    cfg.initial_energy = 0.01;  // small battery so drain is visible
    Deployment d(scenario(5), cfg, pos, faulty(pos.size()));
    d.generator().schedule_events(40, 10.0, 5.0);
    d.run(450.0);
    double min_frac = 1.0;
    for (std::size_t i = 0; i < pos.size(); ++i) {
        min_frac = std::min(min_frac, d.battery_fraction(static_cast<sim::ProcessId>(i)));
    }
    EXPECT_LT(min_frac, 1.0);  // transmissions cost energy
    // On a starvation budget a couple of heads may burn out entirely, but
    // rotation spreads the load: most of the network survives, and dead
    // nodes are never elected again.
    EXPECT_GE(d.alive_nodes() + 6, pos.size());
    EXPECT_EQ(d.rounds().back().alive, d.alive_nodes());
}

TEST(Deployment, DistrustedNodesNeverLead) {
    auto pos = lattice();
    const std::size_t n_faulty = 10;
    auto cfg = config();
    Deployment d(scenario(6), cfg, pos, faulty(pos.size(), n_faulty));
    // Pre-poison the archive: the faulty nodes have a record.
    // (In a live run the record accrues from decisions; keeping this test
    // fast by seeding it.)
    for (core::NodeId f = 0; f < n_faulty; ++f) {
        for (int k = 0; k < 5; ++k) {
            const_cast<cluster::BaseStation&>(d.base_station()).archive().judge_faulty(f);
        }
    }
    d.run(1200.0);
    for (const auto& r : d.rounds()) {
        for (auto h : r.heads) {
            EXPECT_GE(h, n_faulty) << "distrusted node " << h << " led round " << r.round;
        }
    }
}

TEST(Deployment, TrustAccruesInArchiveAcrossRounds) {
    auto pos = lattice();
    const std::size_t n_faulty = 12;
    Deployment d(scenario(7), config(), pos, faulty(pos.size(), n_faulty));
    d.generator().schedule_events(60, 15.0, 12.0);
    d.run(950.0);
    // After many decisions + deposits, the archive separates the classes.
    double vf = 0.0, vc = 0.0;
    for (core::NodeId i = 0; i < pos.size(); ++i) {
        (i < n_faulty ? vf : vc) += d.base_station().archive().v(i);
    }
    vf /= n_faulty;
    vc /= static_cast<double>(pos.size() - n_faulty);
    EXPECT_GT(vf, vc);
}

TEST(Deployment, Deterministic) {
    auto run = [&] {
        auto pos = lattice();
        Deployment d(scenario(8), config(), pos, faulty(pos.size(), 6));
        d.generator().schedule_events(20, 15.0, 10.0);
        d.run(350.0);
        return d.decisions().size();
    };
    EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace tibfit::exp
