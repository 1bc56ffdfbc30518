#include "sensor/sensor_node.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <variant>

#include "net/channel.h"
#include "sensor/event_generator.h"

namespace tibfit::sensor {
namespace {

class Sink : public sim::Process {
  public:
    Sink(sim::Simulator& s, sim::ProcessId id) : sim::Process(s, id) {}
    void handle_packet(const net::Packet& p) override { received.push_back(p); }
    std::vector<net::Packet> received;
};

net::ChannelParams lossless() {
    net::ChannelParams p;
    p.drop_probability = 0.0;
    return p;
}

FaultParams honest() {
    FaultParams p;
    p.natural_error_rate = 0.0;
    p.correct_sigma = 0.0;
    return p;
}

class SensorNodeTest : public ::testing::Test {
  protected:
    SensorNodeTest() : channel_(simulator_, util::Rng(1), lossless()), ch_(simulator_, 10) {
        channel_.attach(ch_, {50, 50}, 1000.0);
    }

    std::unique_ptr<SensorNode> make_node(sim::ProcessId id, util::Vec2 pos,
                                          std::unique_ptr<FaultBehavior> b) {
        auto node = std::make_unique<SensorNode>(simulator_, id, pos, 20.0,
                                                 net::Radio(channel_, id), std::move(b),
                                                 util::Rng(id + 100), core::TrustParams{});
        channel_.attach(*node, pos, 1000.0);
        node->set_cluster_head(10);
        return node;
    }

    sim::Simulator simulator_;
    net::Channel channel_;
    Sink ch_;
};

TEST_F(SensorNodeTest, HonestNodeReportsEventWithPolarOffset) {
    auto node = make_node(0, {40, 40}, std::make_unique<CorrectBehavior>(honest()));
    node->set_binary_mode(false);
    node->on_event(1, {45, 44});
    simulator_.run();
    ASSERT_EQ(ch_.received.size(), 1u);
    const auto* r = ch_.received[0].as<net::ReportPayload>();
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->has_location);
    // Resolving the polar offset against the node position recovers the
    // (noise-free) event location.
    const auto resolved = core::resolve_location({40, 40}, r->offset);
    EXPECT_NEAR(resolved.x, 45.0, 1e-9);
    EXPECT_NEAR(resolved.y, 44.0, 1e-9);
}

TEST_F(SensorNodeTest, BinaryModeOmitsLocation) {
    auto node = make_node(0, {40, 40}, std::make_unique<CorrectBehavior>(honest()));
    node->set_binary_mode(true);
    node->on_event(1, {45, 44});
    simulator_.run();
    ASSERT_EQ(ch_.received.size(), 1u);
    const auto* r = ch_.received[0].as<net::ReportPayload>();
    ASSERT_NE(r, nullptr);
    EXPECT_FALSE(r->has_location);
    EXPECT_TRUE(r->positive);
}

TEST_F(SensorNodeTest, NoSinkNoTransmit) {
    auto node = make_node(0, {40, 40}, std::make_unique<CorrectBehavior>(honest()));
    node->set_cluster_head(sim::kNoProcess);
    node->on_event(1, {45, 44});
    simulator_.run();
    EXPECT_TRUE(ch_.received.empty());
    EXPECT_EQ(node->reports_sent(), 0u);
}

TEST_F(SensorNodeTest, TracksTiFromDecisionBroadcasts) {
    auto node = make_node(0, {40, 40}, std::make_unique<CorrectBehavior>(honest()));
    EXPECT_DOUBLE_EQ(node->tracked_ti(), 1.0);

    net::DecisionPayload d;
    d.judged_faulty = {0};
    net::Packet p;
    p.src = 10;
    p.dst = 0;
    p.payload = d;
    node->handle_packet(p);
    const double after_fault = node->tracked_ti();
    EXPECT_LT(after_fault, 1.0);

    net::DecisionPayload d2;
    d2.judged_correct = {0};
    p.payload = d2;
    node->handle_packet(p);
    EXPECT_GT(node->tracked_ti(), after_fault);
}

TEST_F(SensorNodeTest, IgnoresJudgementsOfOtherNodes) {
    auto node = make_node(0, {40, 40}, std::make_unique<CorrectBehavior>(honest()));
    net::DecisionPayload d;
    d.judged_faulty = {1, 2, 3};
    net::Packet p;
    p.src = 10;
    p.payload = d;
    node->handle_packet(p);
    EXPECT_DOUBLE_EQ(node->tracked_ti(), 1.0);
}

/// Applies `d` to node `self`'s mirror `t` by the list scan the index
/// replaced: one judgement per mention, correct ones first.
void scan(core::TrustIndex& t, const net::DecisionPayload& d, core::NodeId self) {
    const core::TrustParams params;
    for (core::NodeId n : d.judged_correct) {
        if (n == self) t.record_correct(params);
    }
    for (core::NodeId n : d.judged_faulty) {
        if (n == self) t.record_faulty(params);
    }
}

/// The TI node `self` tracks after hearing `d` `times` times, by the scan.
double scanned_ti(const net::DecisionPayload& d, core::NodeId self, int times) {
    core::TrustIndex t;
    for (int i = 0; i < times; ++i) scan(t, d, self);
    return t.ti(core::TrustParams{});
}

/// The TI node `self` tracks after handling `d` `times` times.
double handled_ti(const net::DecisionPayload& d, core::NodeId self, int times) {
    sim::Simulator sim;
    net::Channel channel(sim, util::Rng(1));
    SensorNode node(sim, self, {0, 0}, 20.0, net::Radio(channel, self),
                    std::make_unique<CorrectBehavior>(honest()), util::Rng(2),
                    core::TrustParams{});
    net::Packet p;
    p.src = 500;
    p.dst = net::kBroadcast;
    p.payload = d;
    for (int i = 0; i < times; ++i) node.handle_packet(p);
    return node.tracked_ti();
}

TEST_F(SensorNodeTest, DecisionHandlingMatchesTheListScan) {
    struct Case {
        const char* name;
        core::NodeId self;
        std::vector<core::NodeId> correct, faulty;
    };
    const std::vector<Case> cases{
        {"first id", 0, {0, 5, 63}, {64, 127}},
        {"last id of a word", 63, {62, 63}, {64}},
        {"first id of a word", 64, {63}, {64, 65}},
        {"faulty at a word end", 127, {128}, {126, 127}},
        {"top id", 128, {0}, {127, 128}},
        {"beyond the index", 129, {0, 64}, {127, 128}},
        {"far beyond the index", 100000, {1, 2}, {3}},
        {"empty lists", 0, {}, {}},
        {"empty lists, high id", 128, {}, {}},
        {"in neither list", 65, {64, 66}, {63, 67, 128}},
        {"only correct list", 127, {127}, {}},
        {"only faulty list", 0, {}, {0}},
        {"in both lists", 7, {7, 8}, {6, 7}},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        net::DecisionPayload d;
        d.judged_correct = c.correct;
        d.judged_faulty = c.faulty;
        for (int times : {1, 3}) {
            EXPECT_EQ(handled_ti(d, c.self, times), scanned_ti(d, c.self, times));
        }
    }
}

TEST_F(SensorNodeTest, CopiedThenMutatedDecisionIsReadFresh) {
    // A body that receivers have already read, copied and edited, must be
    // read from its edited lists. Each node mirrors its own scan.
    std::map<core::NodeId, std::unique_ptr<SensorNode>> nodes;
    std::map<core::NodeId, core::TrustIndex> expected;
    for (core::NodeId id : {1u, 3u, 9u, 64u, 200u}) {
        nodes[id] = make_node(id, {40, 40}, std::make_unique<CorrectBehavior>(honest()));
    }
    const auto hear = [&](const net::Packet& p) {
        const auto& d = std::get<net::DecisionPayload>(p.payload);
        for (auto& [id, node] : nodes) {
            node->handle_packet(p);
            scan(expected[id], d, id);
            EXPECT_EQ(node->tracked_ti(), expected[id].ti(core::TrustParams{})) << "node " << id;
        }
    };

    net::Packet heard;
    heard.src = 10;
    heard.dst = net::kBroadcast;
    net::DecisionPayload d;
    d.judged_correct = {1, 2};
    d.judged_faulty = {64};
    heard.payload = d;
    hear(heard);

    net::Packet copy = heard;
    auto& edited = std::get<net::DecisionPayload>(copy.payload);
    edited.judged_faulty = {3};
    edited.judged_correct.push_back(64);
    edited.judged_correct.push_back(200);
    hear(copy);
    hear(heard);

    net::Packet assigned = heard;
    std::get<net::DecisionPayload>(assigned.payload).judged_faulty = {9};
    hear(assigned);
    assigned = copy;  // over a body that was already read
    std::get<net::DecisionPayload>(assigned.payload).judged_correct.clear();
    hear(assigned);
}

TEST(DecisionPayloadTest, VerdictOfMatchesListMembership) {
    util::Rng rng(7);
    for (int trial = 0; trial < 50; ++trial) {
        net::DecisionPayload d;
        const std::uint64_t span = 1 + rng.uniform_index(300);
        for (std::uint64_t k = rng.uniform_index(40); k > 0; --k) {
            auto& list = rng.chance(0.5) ? d.judged_correct : d.judged_faulty;
            list.push_back(static_cast<core::NodeId>(rng.uniform_index(span)));
        }
        const auto in = [](const std::vector<core::NodeId>& list, core::NodeId id) {
            return std::find(list.begin(), list.end(), id) != list.end();
        };
        for (core::NodeId id = 0; id < span + 70; ++id) {
            const unsigned want = (in(d.judged_correct, id) ? net::kJudgedCorrect : 0u) |
                                  (in(d.judged_faulty, id) ? net::kJudgedFaulty : 0u);
            ASSERT_EQ(d.verdict_of(id), want) << "trial " << trial << " id " << id;
        }
        EXPECT_EQ(d.verdict_of(core::kNoNode), 0u);
        // A move carries the index with the lists.
        const net::DecisionPayload moved = std::move(d);
        for (core::NodeId id = 0; id < span; ++id) {
            const unsigned want = (in(moved.judged_correct, id) ? net::kJudgedCorrect : 0u) |
                                  (in(moved.judged_faulty, id) ? net::kJudgedFaulty : 0u);
            ASSERT_EQ(moved.verdict_of(id), want) << "trial " << trial << " id " << id;
        }
    }
}

TEST_F(SensorNodeTest, TxJitterDelaysButDelivers) {
    auto node = make_node(0, {40, 40}, std::make_unique<CorrectBehavior>(honest()));
    node->set_binary_mode(true);
    node->set_tx_jitter(0.5);
    node->on_event(1, {45, 44});
    EXPECT_EQ(node->reports_sent(), 1u);
    EXPECT_TRUE(ch_.received.empty());  // still waiting out the jitter
    simulator_.run();
    ASSERT_EQ(ch_.received.size(), 1u);
    // Delivery happened within the jitter bound plus channel latency.
    EXPECT_LE(simulator_.now(), 0.5 + 0.01);
    EXPECT_GT(simulator_.now(), 0.0);
}

TEST_F(SensorNodeTest, TxJitterUsesSinkAtSenseTime) {
    // The sink is latched when the node senses, so a CH rotation during
    // the backoff cannot misroute the report.
    auto node = make_node(0, {40, 40}, std::make_unique<CorrectBehavior>(honest()));
    node->set_binary_mode(true);
    node->set_tx_jitter(0.5);
    node->on_event(1, {45, 44});
    node->set_cluster_head(99);  // rotation happens mid-backoff
    simulator_.run();
    EXPECT_EQ(ch_.received.size(), 1u);  // went to the original sink
}

TEST_F(SensorNodeTest, AffiliationPicksStrongestSignal) {
    auto node = make_node(0, {40, 40}, std::make_unique<CorrectBehavior>(honest()));
    node->set_cluster_head(sim::kNoProcess);
    node->begin_affiliation(1.0);
    EXPECT_TRUE(node->affiliating());

    net::Packet near_advert;
    near_advert.src = 10;
    near_advert.rssi = 0.5;
    near_advert.payload = net::ChAdvertPayload{};
    net::Packet far_advert;
    far_advert.src = 20;
    far_advert.rssi = 0.1;
    far_advert.payload = net::ChAdvertPayload{};
    node->handle_packet(far_advert);
    node->handle_packet(near_advert);

    simulator_.run();  // the affiliation deadline fires
    EXPECT_FALSE(node->affiliating());
    EXPECT_EQ(node->cluster_head(), 10u);  // strongest signal wins
}

TEST_F(SensorNodeTest, AffiliationKeepsOldSinkWhenSilent) {
    auto node = make_node(0, {40, 40}, std::make_unique<CorrectBehavior>(honest()));
    node->set_cluster_head(77);
    node->begin_affiliation(1.0);
    simulator_.run();  // no adverts heard
    EXPECT_EQ(node->cluster_head(), 77u);
}

TEST_F(SensorNodeTest, NewerAffiliationWindowSupersedesOlder) {
    auto node = make_node(0, {40, 40}, std::make_unique<CorrectBehavior>(honest()));
    node->set_cluster_head(sim::kNoProcess);
    node->begin_affiliation(1.0);
    net::Packet advert;
    advert.src = 10;
    advert.rssi = 0.9;
    advert.payload = net::ChAdvertPayload{};
    node->handle_packet(advert);
    // A second window opens before the first deadline: the stale deadline
    // must not affiliate with the earlier round's advert.
    node->begin_affiliation(2.0);
    simulator_.run_until(1.5);  // first (stale) deadline fires, is ignored
    EXPECT_TRUE(node->affiliating());
    net::Packet advert2;
    advert2.src = 20;
    advert2.rssi = 0.4;
    advert2.payload = net::ChAdvertPayload{};
    node->handle_packet(advert2);
    simulator_.run();
    EXPECT_EQ(node->cluster_head(), 20u);
}

TEST_F(SensorNodeTest, AdvertAdoptedWhenNoSink) {
    auto node = make_node(0, {40, 40}, std::make_unique<CorrectBehavior>(honest()));
    node->set_cluster_head(sim::kNoProcess);
    net::Packet p;
    p.src = 10;
    p.payload = net::ChAdvertPayload{};
    node->handle_packet(p);
    EXPECT_EQ(node->cluster_head(), 10u);
}

TEST_F(SensorNodeTest, SetBehaviorSwapsClass) {
    auto node = make_node(0, {40, 40}, std::make_unique<CorrectBehavior>(honest()));
    EXPECT_EQ(node->node_class(), NodeClass::Correct);
    FaultParams fp;
    node->set_behavior(std::make_unique<Level0Fault>(fp, false));
    EXPECT_EQ(node->node_class(), NodeClass::Level0);
    EXPECT_THROW(node->set_behavior(nullptr), std::invalid_argument);
}

TEST_F(SensorNodeTest, GeneratorInformsOnlyEventNeighbours) {
    auto near = make_node(0, {40, 40}, std::make_unique<CorrectBehavior>(honest()));
    auto far = make_node(1, {90, 90}, std::make_unique<CorrectBehavior>(honest()));
    near->set_binary_mode(true);
    far->set_binary_mode(true);

    EventGenerator gen(simulator_, util::Rng(5), 100, 100);
    gen.set_nodes({near.get(), far.get()});
    // Deterministic event via the internal draw is not controllable, so use
    // history to verify neighbourhood computation instead: schedule many
    // events and check consistency.
    gen.schedule_events(20, 1.0, 0.0);
    simulator_.run();
    ASSERT_EQ(gen.history().size(), 20u);
    for (const auto& ev : gen.history()) {
        for (auto id : ev.event_neighbours) {
            const auto& pos = id == 0 ? near->position() : far->position();
            EXPECT_LE(util::distance(pos, ev.location), 20.0 + 1e-9);
        }
    }
    // Reports received at the CH match the per-node report counts.
    EXPECT_EQ(ch_.received.size(), near->reports_sent() + far->reports_sent());
}

TEST_F(SensorNodeTest, GeneratorBurstRespectsSeparation) {
    EventGenerator gen(simulator_, util::Rng(7), 100, 100);
    gen.set_nodes({});
    gen.schedule_events(10, 1.0, 0.0, /*burst=*/3, /*min_separation=*/20.0);
    simulator_.run();
    const auto& h = gen.history();
    ASSERT_EQ(h.size(), 30u);
    for (std::size_t i = 0; i < h.size(); i += 3) {
        for (std::size_t a = i; a < i + 3; ++a) {
            for (std::size_t b = a + 1; b < i + 3; ++b) {
                EXPECT_GE(util::distance(h[a].location, h[b].location), 20.0);
                EXPECT_EQ(h[a].time, h[b].time);
            }
        }
    }
}

TEST_F(SensorNodeTest, GeneratorCallbacksFire) {
    EventGenerator gen(simulator_, util::Rng(9), 100, 100);
    gen.set_nodes({});
    int events = 0, quiets = 0;
    gen.on_event([&](const GeneratedEvent&) { ++events; });
    gen.on_quiet([&](std::uint64_t, double) { ++quiets; });
    gen.schedule_events(5, 1.0, 0.0);
    gen.schedule_quiet_windows(4, 1.0, 0.5);
    simulator_.run();
    EXPECT_EQ(events, 5);
    EXPECT_EQ(quiets, 4);
    EXPECT_EQ(gen.scheduled(), 5u);
}

TEST_F(SensorNodeTest, GeneratorRejectsBadArguments) {
    EXPECT_THROW(EventGenerator(simulator_, util::Rng(1), 0.0, 10.0), std::invalid_argument);
    EventGenerator gen(simulator_, util::Rng(1), 10, 10);
    EXPECT_THROW(gen.schedule_events(1, 1.0, 0.0, /*burst=*/0), std::invalid_argument);
    // Impossible separation on a tiny field must fail loudly, not hang.
    EXPECT_THROW(gen.schedule_events(1, 1.0, 0.0, 2, 1000.0), std::runtime_error);
}

}  // namespace
}  // namespace tibfit::sensor
