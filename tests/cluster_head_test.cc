#include "cluster/cluster_head.h"

#include <gtest/gtest.h>

#include "net/channel.h"

namespace tibfit::cluster {
namespace {

net::ChannelParams lossless() {
    net::ChannelParams p;
    p.drop_probability = 0.0;
    return p;
}

core::EngineConfig engine_config() {
    core::EngineConfig c;
    c.policy = core::DecisionPolicy::TrustIndex;
    c.sensing_radius = 20.0;
    c.r_error = 5.0;
    c.t_out = 1.0;
    c.trust.lambda = 0.25;
    c.trust.fault_rate = 0.1;
    return c;
}

/// Records every packet (stand-in for nodes / base station).
class Sink : public sim::Process {
  public:
    Sink(sim::Simulator& s, sim::ProcessId id) : sim::Process(s, id) {}
    void handle_packet(const net::Packet& p) override { received.push_back(p); }
    std::vector<net::Packet> received;
};

class ClusterHeadTest : public ::testing::Test {
  protected:
    static constexpr sim::ProcessId kCh = 100;
    static constexpr sim::ProcessId kBs = 101;
    static constexpr sim::ProcessId kNodeBase = 0;

    ClusterHeadTest()
        : channel_(simulator_, util::Rng(1), lossless()),
          ch_(simulator_, kCh, net::Radio(channel_, kCh), engine_config()),
          bs_(simulator_, kBs) {
        // 5 nodes in a row, CH and BS nearby.
        for (int i = 0; i < 5; ++i) positions_.push_back({static_cast<double>(4 * i), 0.0});
        ch_.set_topology(positions_);
        ch_.on_decision([this](const DecisionRecord& r) { decisions_.push_back(r); });
        channel_.attach(ch_, {8, 5}, 1000.0);
        channel_.attach(bs_, {8, 50}, 1000.0);
        for (int i = 0; i < 5; ++i) {
            sinks_.push_back(std::make_unique<Sink>(simulator_, kNodeBase + i));
            channel_.attach(*sinks_.back(), positions_[i], 1000.0);
        }
    }

    /// Injects a report packet from node `n` as if it came off the air.
    void send_report(core::NodeId n, bool positive = true,
                     std::optional<util::Vec2> loc = std::nullopt) {
        net::ReportPayload r;
        r.positive = positive;
        if (loc) {
            r.has_location = true;
            r.offset = core::PolarOffset::from_cartesian(*loc - positions_[n]);
        }
        net::Packet p;
        p.src = n;
        p.dst = kCh;
        p.payload = r;
        channel_.unicast(std::move(p));
    }

    sim::Simulator simulator_;
    net::Channel channel_;
    ClusterHead ch_;
    Sink bs_;
    std::vector<std::unique_ptr<Sink>> sinks_;
    std::vector<util::Vec2> positions_;
    std::vector<DecisionRecord> decisions_;  ///< what the CH announced, in order
};

TEST_F(ClusterHeadTest, BinaryWindowDeclaresOnMajority) {
    ch_.set_binary_mode(true);
    send_report(0);
    send_report(1);
    send_report(2);
    simulator_.run();
    ASSERT_EQ(decisions_.size(), 1u);
    EXPECT_TRUE(decisions_[0].event_declared);
    EXPECT_EQ(decisions_[0].n_reporters, 3u);
    // Window closes T_out after the first report arrived.
    EXPECT_NEAR(decisions_[0].time - decisions_[0].window_opened, 1.0, 1e-9);
}

TEST_F(ClusterHeadTest, BinaryMinorityRejected) {
    ch_.set_binary_mode(true);
    send_report(0);
    simulator_.run();
    ASSERT_EQ(decisions_.size(), 1u);
    EXPECT_FALSE(decisions_[0].event_declared);
}

TEST_F(ClusterHeadTest, DuplicateReportsCountedOnce) {
    ch_.set_binary_mode(true);
    send_report(0);
    send_report(0);
    send_report(0);
    simulator_.run();
    ASSERT_EQ(decisions_.size(), 1u);
    EXPECT_EQ(decisions_[0].n_reporters, 1u);
}

TEST_F(ClusterHeadTest, DecisionBroadcastCarriesJudgements) {
    ch_.set_binary_mode(true);
    send_report(0);
    send_report(1);
    send_report(2);
    simulator_.run();
    // Every node heard the decision broadcast.
    const auto* d = [&]() -> const net::DecisionPayload* {
        for (const auto& p : sinks_[0]->received) {
            if (const auto* dp = p.as<net::DecisionPayload>()) return dp;
        }
        return nullptr;
    }();
    ASSERT_NE(d, nullptr);
    EXPECT_TRUE(d->event_declared);
    EXPECT_EQ(d->judged_correct, (std::vector<core::NodeId>{0, 1, 2}));
    EXPECT_EQ(d->judged_faulty, (std::vector<core::NodeId>{3, 4}));
}

TEST_F(ClusterHeadTest, LocationWindowDecidesAndLocates) {
    ch_.set_binary_mode(false);
    send_report(0, true, util::Vec2{8, 0});
    send_report(1, true, util::Vec2{8.2, 0.1});
    send_report(2, true, util::Vec2{7.9, -0.1});
    simulator_.run();
    ASSERT_EQ(decisions_.size(), 1u);
    const auto& d = decisions_[0];
    EXPECT_TRUE(d.event_declared);
    EXPECT_TRUE(d.has_location);
    EXPECT_LT(util::distance(d.location, {8, 0}), 0.5);
}

TEST_F(ClusterHeadTest, InactiveChIgnoresReports) {
    ch_.set_binary_mode(true);
    ch_.set_active(false);
    send_report(0);
    send_report(1);
    simulator_.run();
    EXPECT_TRUE(decisions_.empty());
}

TEST_F(ClusterHeadTest, CorruptChAnnouncesInverse) {
    ch_.set_binary_mode(true);
    ch_.set_corrupt(true);
    send_report(0);
    send_report(1);
    send_report(2);
    simulator_.run();
    ASSERT_EQ(decisions_.size(), 1u);
    // Engine concluded "event", the corrupt CH logs/announces "no event".
    EXPECT_FALSE(decisions_[0].event_declared);
}

TEST_F(ClusterHeadTest, TalliesCountWhatTheChAnnounces) {
    ch_.set_binary_mode(true);
    ch_.set_corrupt(true);
    send_report(0);
    send_report(0);
    send_report(1);
    send_report(2);
    simulator_.run();
    send_report(2);
    simulator_.run();
    EXPECT_EQ(ch_.reports_received(), 5u);  // the duplicate too
    EXPECT_EQ(ch_.windows_opened(), 2u);
    EXPECT_EQ(ch_.decisions_announced(), 2u);
    // The engine declared only the first window (3 of 5 reported); the
    // corrupt CH inverted both, so it announced and counts the second.
    ASSERT_EQ(decisions_.size(), 2u);
    EXPECT_FALSE(decisions_[0].event_declared);
    EXPECT_TRUE(decisions_[1].event_declared);
    EXPECT_EQ(ch_.events_declared(), 1u);
}

TEST_F(ClusterHeadTest, EndLeadershipShipsTrustToBaseStation) {
    ch_.set_binary_mode(true);
    ch_.set_base_station(kBs);
    send_report(0);
    send_report(1);
    send_report(2);
    simulator_.run();
    ch_.end_leadership();
    simulator_.run();
    EXPECT_FALSE(ch_.active());
    const net::TiTransferPayload* t = nullptr;
    for (const auto& p : bs_.received) {
        if (const auto* tp = p.as<net::TiTransferPayload>()) t = tp;
    }
    ASSERT_NE(t, nullptr);
    // Nodes 3 and 4 were judged faulty: non-zero v in the transfer.
    bool found = false;
    for (const auto& [id, v] : t->v_values) {
        if (id == 3) {
            EXPECT_GT(v, 0.0);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST_F(ClusterHeadTest, AdoptsArchiveFromTransferPacket) {
    net::TiTransferPayload t;
    t.v_values = {{2, 3.0}};
    net::Packet p;
    p.src = kBs;
    p.dst = kCh;
    p.payload = t;
    channel_.unicast(std::move(p));
    simulator_.run();
    EXPECT_NEAR(ch_.engine().trust().v(2), 3.0, 1e-12);
}

TEST_F(ClusterHeadTest, ReportsFromUnknownNodesIgnored) {
    ch_.set_binary_mode(true);
    // Node id 50 is not in the 5-node topology.
    Sink stranger(simulator_, 50);
    channel_.attach(stranger, {0, 1}, 1000.0);
    net::Packet p;
    p.src = 50;
    p.dst = kCh;
    p.payload = net::ReportPayload{{}, true, false};
    channel_.unicast(std::move(p));
    simulator_.run();
    EXPECT_TRUE(decisions_.empty());
}

TEST_F(ClusterHeadTest, AdvertisementResetsAndAffiliationRebuildsMembership) {
    ch_.set_binary_mode(true);
    ch_.advertise(0, /*self=*/3);
    EXPECT_EQ(ch_.member_count(), 1u);  // only its own sensing identity
    simulator_.run();
    // Every node heard the advert broadcast.
    bool heard = false;
    for (const auto& p : sinks_[0]->received) {
        if (p.as<net::ChAdvertPayload>()) heard = true;
    }
    EXPECT_TRUE(heard);

    // Nodes 0 and 1 affiliate over the air.
    for (core::NodeId n : {0u, 1u}) {
        net::Packet join;
        join.src = n;
        join.dst = kCh;
        join.payload = net::AffiliatePayload{};
        channel_.unicast(std::move(join));
    }
    simulator_.run();
    EXPECT_EQ(ch_.member_count(), 3u);

    // A non-member's report is ignored; members can still trigger windows.
    send_report(4);  // node 4 never affiliated
    simulator_.run();
    EXPECT_TRUE(decisions_.empty());
    send_report(0);
    send_report(1);
    simulator_.run();
    ASSERT_EQ(decisions_.size(), 1u);
    // Event neighbours = the 3 members only; 2 of 3 reported.
    EXPECT_TRUE(decisions_[0].event_declared);
    EXPECT_EQ(decisions_[0].n_reporters, 2u);
}

TEST_F(ClusterHeadTest, AddMemberIdempotent) {
    ch_.advertise(0, 2);
    ch_.add_member(0);
    ch_.add_member(0);
    EXPECT_EQ(ch_.member_count(), 2u);
    ch_.add_member(99);  // out of topology: ignored
    EXPECT_EQ(ch_.member_count(), 2u);
}

TEST_F(ClusterHeadTest, TwoSequentialWindows) {
    ch_.set_binary_mode(true);
    send_report(0);
    send_report(1);
    send_report(2);
    simulator_.run();
    // Second event well after the first window closed.
    simulator_.schedule(5.0, [this] {
        send_report(1);
        send_report(2);
        send_report(3);
    });
    simulator_.run();
    ASSERT_EQ(decisions_.size(), 2u);
    EXPECT_TRUE(decisions_[1].event_declared);
    EXPECT_EQ(decisions_[1].seq, 1u);
}

}  // namespace
}  // namespace tibfit::cluster
