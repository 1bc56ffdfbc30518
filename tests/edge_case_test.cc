// Edge cases across modules: logging levels, base-station message
// orderings, binary false-alarm coincidence knob, quiet-window scoring.
#include <gtest/gtest.h>

#include "cluster/base_station.h"
#include "exp/binary_experiment.h"
#include "exp/sweep.h"
#include "net/channel.h"
#include "util/log.h"

namespace tibfit {
namespace {

// ---------- Logger ----------

TEST(Log, ThresholdFilters) {
    const auto before = util::log_level();
    util::set_log_level(util::LogLevel::Error);
    EXPECT_EQ(util::log_level(), util::LogLevel::Error);
    // Below-threshold and empty messages are discarded without output;
    // at/above threshold they go to stderr.
    testing::internal::CaptureStderr();
    util::log_info() << "hidden";
    util::log_error() << "visible " << 42;
    util::log_error() << "";  // empty: dropped
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(err.find("hidden"), std::string::npos);
    EXPECT_NE(err.find("[error] visible 42"), std::string::npos);
    util::set_log_level(before);
}

TEST(Log, OffSilencesEverything) {
    const auto before = util::log_level();
    util::set_log_level(util::LogLevel::Off);
    testing::internal::CaptureStderr();
    util::log_error() << "nope";
    EXPECT_TRUE(testing::internal::GetCapturedStderr().empty());
    util::set_log_level(before);
}

// ---------- Base station message orderings ----------

class BsOrderingTest : public ::testing::Test {
  protected:
    BsOrderingTest()
        : channel_(simulator_, util::Rng(1), lossless()),
          bs_(simulator_, 50, net::Radio(channel_, 50), core::TrustParams{}, 0.5) {
        channel_.attach(bs_, {0, 0}, 1000.0);
    }

    static net::ChannelParams lossless() {
        net::ChannelParams p;
        p.drop_probability = 0.0;
        return p;
    }

    net::Packet decision_from_ch(std::uint64_t seq, bool declared, sim::ProcessId ch = 10) {
        net::DecisionPayload d;
        d.decision_seq = seq;
        d.event_declared = declared;
        net::Packet p;
        p.src = ch;
        p.dst = 50;
        p.payload = d;
        return p;
    }

    net::Packet alert(std::uint64_t seq, bool conclusion, sim::ProcessId shadow,
                      sim::ProcessId ch = 10) {
        net::SchAlertPayload a;
        a.ch = ch;
        a.decision_seq = seq;
        a.event_declared = conclusion;
        net::Packet p;
        p.src = shadow;
        p.dst = 50;
        p.payload = a;
        return p;
    }

    sim::Simulator simulator_;
    net::Channel channel_;
    cluster::BaseStation bs_;
};

TEST_F(BsOrderingTest, AlertsArrivingBeforeAnnouncementStillOverride) {
    // Channel delays can reorder: both shadow alerts land before the CH's
    // own copy of the decision.
    bs_.handle_packet(alert(3, true, 11));
    bs_.handle_packet(alert(3, true, 12));
    bs_.handle_packet(decision_from_ch(3, false));
    simulator_.run();
    ASSERT_EQ(bs_.final_decisions().size(), 1u);
    EXPECT_TRUE(bs_.final_decisions()[0].event_declared);  // shadows won
    EXPECT_TRUE(bs_.final_decisions()[0].overridden);
}

TEST_F(BsOrderingTest, DuplicateAnnouncementCopiesCollapse) {
    // The BS hears both the unicast copy and the broadcast copy.
    bs_.handle_packet(decision_from_ch(7, true));
    bs_.handle_packet(decision_from_ch(7, true));
    simulator_.run();
    EXPECT_EQ(bs_.final_decisions().size(), 1u);
}

TEST_F(BsOrderingTest, OrphanAlertDecidesNothing) {
    bs_.handle_packet(alert(9, true, 11));
    simulator_.run();
    EXPECT_TRUE(bs_.final_decisions().empty());
    EXPECT_EQ(bs_.overrides(), 0u);
}

TEST_F(BsOrderingTest, ChTrustAccruesAcrossVotes) {
    for (std::uint64_t s = 0; s < 3; ++s) {
        bs_.handle_packet(decision_from_ch(s, false));
        bs_.handle_packet(alert(s, true, 11));
        bs_.handle_packet(alert(s, true, 12));
    }
    simulator_.run();
    EXPECT_EQ(bs_.overrides(), 3u);
    EXPECT_LT(bs_.ch_trust(10), 0.6);  // three demotions compound
}

TEST_F(BsOrderingTest, VotesAreKeyedByChAndSeq) {
    // Two CHs announce the same seq; both shadows dispute CH 20's only.
    bs_.handle_packet(decision_from_ch(4, false, 10));
    bs_.handle_packet(decision_from_ch(4, false, 20));
    bs_.handle_packet(alert(4, true, 11, 20));
    bs_.handle_packet(alert(4, true, 12, 20));
    simulator_.run();
    ASSERT_EQ(bs_.final_decisions().size(), 2u);
    EXPECT_EQ(bs_.overrides(), 1u);
    EXPECT_FALSE(bs_.final_decisions()[0].overridden);  // CH 10's vote stands
    EXPECT_FALSE(bs_.final_decisions()[0].event_declared);
    EXPECT_TRUE(bs_.final_decisions()[1].overridden);
    EXPECT_TRUE(bs_.final_decisions()[1].event_declared);
    EXPECT_GT(bs_.ch_trust(10), bs_.ch_trust(20));
}

TEST_F(BsOrderingTest, AlertExpiresIfAnnouncementComesTooLate) {
    // Both alerts land, then the CH's copy follows more than alert_wait
    // (0.5) later: the alerts have expired and the CH's decision stands.
    bs_.handle_packet(alert(5, true, 11));
    bs_.handle_packet(alert(5, true, 12));
    simulator_.run_until(0.6);
    bs_.handle_packet(decision_from_ch(5, false));
    simulator_.run();
    ASSERT_EQ(bs_.final_decisions().size(), 1u);
    EXPECT_FALSE(bs_.final_decisions()[0].overridden);
    EXPECT_FALSE(bs_.final_decisions()[0].event_declared);
    EXPECT_EQ(bs_.overrides(), 0u);
}

TEST_F(BsOrderingTest, EarlyAlertCountsWithinAlertWait) {
    bs_.handle_packet(alert(6, true, 11));
    bs_.handle_packet(alert(6, true, 12));
    simulator_.run_until(0.4);
    bs_.handle_packet(decision_from_ch(6, false));
    simulator_.run();
    ASSERT_EQ(bs_.final_decisions().size(), 1u);
    EXPECT_TRUE(bs_.final_decisions()[0].overridden);
    EXPECT_DOUBLE_EQ(bs_.final_decisions()[0].time, 0.9);  // the copy's alert_wait
}

// ---------- Binary false-alarm coincidence knob ----------

TEST(BinarySpreadKnob, SynchronizedAlarmsAreWorseAtHighCompromise) {
    exp::Scenario base = exp::Scenario::binary_defaults();
    base.binary.pct_faulty = 0.7;
    base.faults.false_alarm_rate = 0.75;
    base.binary.events = 100;
    base.channel.drop_probability = 0.0;
    base.seed = 5;

    auto spread_out = base;
    spread_out.binary.false_alarm_spread_touts = 8.0;  // nearly independent alarms
    auto synchronized = base;
    synchronized.binary.false_alarm_spread_touts = 0.0;  // one phantom bloc

    const double acc_spread = exp::mean_accuracy(spread_out, 10);
    const double acc_sync = exp::mean_accuracy(synchronized, 10);
    EXPECT_GT(acc_spread, acc_sync + 0.05);
}

TEST(BinarySpreadKnob, QuietWindowsCountedAsInstances) {
    exp::Scenario c = exp::Scenario::binary_defaults();
    c.binary.pct_faulty = 0.5;
    c.faults.false_alarm_rate = 0.5;
    c.binary.events = 50;
    c.channel.drop_probability = 0.0;
    c.seed = 6;
    const auto r = run_binary_experiment(c);
    EXPECT_GT(r.false_alarm_windows, 10u);
    // Accuracy accounts for phantom windows: total instances > events.
    const double detection_only =
        static_cast<double>(r.detected) / static_cast<double>(r.events);
    const std::size_t instances = r.events + r.false_alarm_windows;
    const double expected = static_cast<double>(r.detected + r.false_alarm_windows -
                                                r.phantoms_declared) /
                            static_cast<double>(instances);
    EXPECT_NEAR(r.accuracy, expected, 1e-12);
    EXPECT_LE(r.detection_rate, detection_only + 1e-12);
}

}  // namespace
}  // namespace tibfit
