#include "net/channel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <new>
#include <ostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "net/radio.h"

// Counts live global heap allocations so the shared-body tests can see when
// a packet body is freed (and that a delivery allocates nothing). The
// replacement forwards to malloc/free, so it is transparent to every other
// test in this binary and to the sanitizers' malloc interception.
namespace {
std::atomic<long> g_live_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
    void* p = std::malloc(n == 0 ? 1 : n);
    if (!p) throw std::bad_alloc();
    g_live_allocations.fetch_add(1, std::memory_order_relaxed);
    return p;
}

// GCC cannot tell that this is the replacement paired with the malloc above.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept {
    if (!p) return;
    g_live_allocations.fetch_sub(1, std::memory_order_relaxed);
    std::free(p);
}
#pragma GCC diagnostic pop

void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

namespace tibfit::net {
namespace {

long live_allocations() { return g_live_allocations.load(std::memory_order_relaxed); }

/// Test process that records every delivered packet (a copy) and the
/// address it was handed.
class Sink : public sim::Process {
  public:
    Sink(sim::Simulator& s, sim::ProcessId id) : sim::Process(s, id) {}
    void handle_packet(const Packet& p) override {
        received.push_back(p);
        bodies.push_back(&p);
    }
    std::vector<Packet> received;
    std::vector<const Packet*> bodies;
};

/// Test process that only counts deliveries, so it allocates nothing.
class Tally : public sim::Process {
  public:
    Tally(sim::Simulator& s, sim::ProcessId id) : sim::Process(s, id) {}
    void handle_packet(const Packet&) override { ++received; }
    std::size_t received = 0;
};

class ChannelTest : public ::testing::Test {
  protected:
    ChannelTest() : channel_(simulator_, util::Rng(1), lossless()) {}

    static ChannelParams lossless() {
        ChannelParams p;
        p.drop_probability = 0.0;
        return p;
    }

    Packet report_packet(sim::ProcessId src, sim::ProcessId dst) {
        Packet p;
        p.src = src;
        p.dst = dst;
        p.payload = ReportPayload{};
        return p;
    }

    sim::Simulator simulator_;
    Channel channel_;
};

TEST_F(ChannelTest, UnicastDelivers) {
    Sink a(simulator_, 0), b(simulator_, 1);
    channel_.attach(a, {0, 0}, 100.0);
    channel_.attach(b, {10, 0}, 100.0);
    EXPECT_TRUE(channel_.unicast(report_packet(0, 1)));
    simulator_.run();
    ASSERT_EQ(b.received.size(), 1u);
    EXPECT_EQ(b.received[0].src, 0u);
    EXPECT_EQ(channel_.delivered(), 1u);
}

TEST_F(ChannelTest, DeliveryHasPropagationDelay) {
    Sink a(simulator_, 0), b(simulator_, 1);
    channel_.attach(a, {0, 0}, 1000.0);
    channel_.attach(b, {300, 0}, 1000.0);
    channel_.unicast(report_packet(0, 1));
    simulator_.run();
    // base_latency 1e-4 + 300/3e4 = 0.0101
    EXPECT_NEAR(simulator_.now(), 0.0101, 1e-9);
}

TEST_F(ChannelTest, OutOfRangeNotDelivered) {
    Sink a(simulator_, 0), b(simulator_, 1);
    channel_.attach(a, {0, 0}, 5.0);
    channel_.attach(b, {10, 0}, 5.0);
    EXPECT_FALSE(channel_.unicast(report_packet(0, 1)));
    simulator_.run();
    EXPECT_TRUE(b.received.empty());
    EXPECT_EQ(channel_.out_of_range(), 1u);
}

TEST_F(ChannelTest, UnknownDestinationNotDelivered) {
    Sink a(simulator_, 0);
    channel_.attach(a, {0, 0}, 5.0);
    EXPECT_FALSE(channel_.unicast(report_packet(0, 99)));
}

TEST_F(ChannelTest, UnknownSenderThrows) {
    EXPECT_THROW(channel_.unicast(report_packet(42, 0)), std::out_of_range);
    Packet p = report_packet(42, kBroadcast);
    EXPECT_THROW(channel_.broadcast(p), std::out_of_range);
}

TEST_F(ChannelTest, BroadcastReachesAllInRange) {
    Sink a(simulator_, 0), b(simulator_, 1), c(simulator_, 2), far(simulator_, 3);
    channel_.attach(a, {0, 0}, 50.0);
    channel_.attach(b, {10, 0}, 50.0);
    channel_.attach(c, {20, 0}, 50.0);
    channel_.attach(far, {500, 0}, 50.0);
    Packet p = report_packet(0, kBroadcast);
    EXPECT_EQ(channel_.broadcast(p), 2u);
    simulator_.run();
    EXPECT_EQ(b.received.size(), 1u);
    EXPECT_EQ(c.received.size(), 1u);
    EXPECT_TRUE(far.received.empty());
}

TEST_F(ChannelTest, PerSenderDropOverride) {
    Sink a(simulator_, 0), b(simulator_, 1);
    channel_.attach(a, {0, 0}, 100.0);
    channel_.attach(b, {1, 0}, 100.0);
    channel_.set_drop_probability(0, 1.0);  // always drop
    for (int i = 0; i < 20; ++i) channel_.unicast(report_packet(0, 1));
    simulator_.run();
    EXPECT_TRUE(b.received.empty());
    EXPECT_EQ(channel_.dropped(), 20u);
    EXPECT_THROW(channel_.set_drop_probability(99, 0.5), std::out_of_range);
}

TEST_F(ChannelTest, LossRateApproximatesParameter) {
    ChannelParams lossy;
    lossy.drop_probability = 0.25;
    Channel ch(simulator_, util::Rng(7), lossy);
    Sink a(simulator_, 0), b(simulator_, 1);
    ch.attach(a, {0, 0}, 100.0);
    ch.attach(b, {1, 0}, 100.0);
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        Packet p;
        p.src = 0;
        p.dst = 1;
        p.payload = ReportPayload{};
        ch.unicast(std::move(p));
    }
    simulator_.run();
    EXPECT_NEAR(static_cast<double>(b.received.size()) / n, 0.75, 0.03);
}

TEST_F(ChannelTest, DetachStopsDelivery) {
    Sink a(simulator_, 0), b(simulator_, 1);
    channel_.attach(a, {0, 0}, 100.0);
    channel_.attach(b, {1, 0}, 100.0);
    channel_.detach(1);
    EXPECT_FALSE(channel_.unicast(report_packet(0, 1)));
}

TEST_F(ChannelTest, SetPositionMoves) {
    Sink a(simulator_, 0), b(simulator_, 1);
    channel_.attach(a, {0, 0}, 5.0);
    channel_.attach(b, {100, 0}, 5.0);
    EXPECT_FALSE(channel_.unicast(report_packet(0, 1)));
    channel_.set_position(1, {3, 0});
    EXPECT_TRUE(channel_.unicast(report_packet(0, 1)));
    EXPECT_EQ(channel_.position(1).x, 3.0);
    EXPECT_THROW(channel_.set_position(77, {0, 0}), std::out_of_range);
    EXPECT_THROW(channel_.position(77), std::out_of_range);
}

TEST_F(ChannelTest, MonitorOverhearsTrafficToTarget) {
    Sink node(simulator_, 0), ch(simulator_, 1), shadow(simulator_, 2);
    channel_.attach(node, {0, 0}, 100.0);
    channel_.attach(ch, {10, 0}, 100.0);
    channel_.attach(shadow, {12, 0}, 100.0);
    channel_.add_monitor(2, 1);  // shadow watches the CH
    channel_.unicast(report_packet(0, 1));
    simulator_.run();
    EXPECT_EQ(ch.received.size(), 1u);
    ASSERT_EQ(shadow.received.size(), 1u);
    EXPECT_EQ(shadow.received[0].dst, 1u);  // copy keeps original addressing
}

TEST_F(ChannelTest, MonitorOverhearsTrafficFromTarget) {
    Sink ch(simulator_, 1), bs(simulator_, 3), shadow(simulator_, 2);
    channel_.attach(ch, {10, 0}, 100.0);
    channel_.attach(bs, {50, 0}, 100.0);
    channel_.attach(shadow, {12, 0}, 100.0);
    channel_.add_monitor(2, 1);
    channel_.unicast(report_packet(1, 3));  // CH -> base station
    simulator_.run();
    EXPECT_EQ(bs.received.size(), 1u);
    EXPECT_EQ(shadow.received.size(), 1u);
}

TEST_F(ChannelTest, RemoveMonitorStopsCopies) {
    Sink node(simulator_, 0), ch(simulator_, 1), shadow(simulator_, 2);
    channel_.attach(node, {0, 0}, 100.0);
    channel_.attach(ch, {10, 0}, 100.0);
    channel_.attach(shadow, {12, 0}, 100.0);
    channel_.add_monitor(2, 1);
    channel_.remove_monitor(2, 1);
    channel_.unicast(report_packet(0, 1));
    simulator_.run();
    EXPECT_TRUE(shadow.received.empty());
}

TEST_F(ChannelTest, AddMonitorOnUnknownTargetThrows) {
    Sink shadow(simulator_, 2);
    channel_.attach(shadow, {12, 0}, 100.0);
    EXPECT_THROW(channel_.add_monitor(2, 1), std::out_of_range);
}

TEST_F(ChannelTest, MonitorsSurviveReattachButNotDetach) {
    Sink node(simulator_, 0), ch(simulator_, 1), shadow(simulator_, 2);
    channel_.attach(node, {0, 0}, 100.0);
    channel_.attach(ch, {10, 0}, 100.0);
    channel_.attach(shadow, {12, 0}, 100.0);
    channel_.add_monitor(2, 1);
    channel_.attach(ch, {11, 0}, 100.0);  // re-attach: the shadow still listens
    channel_.unicast(report_packet(0, 1));
    simulator_.run();
    EXPECT_EQ(shadow.received.size(), 1u);

    channel_.detach(1);
    channel_.attach(ch, {10, 0}, 100.0);  // a fresh endpoint: nobody listens
    channel_.unicast(report_packet(0, 1));
    simulator_.run();
    EXPECT_EQ(ch.received.size(), 2u);
    EXPECT_EQ(shadow.received.size(), 1u);
}

TEST_F(ChannelTest, RadioCountsTraffic) {
    Sink a(simulator_, 0), b(simulator_, 1);
    channel_.attach(a, {0, 0}, 100.0);
    channel_.attach(b, {10, 0}, 100.0);
    Radio r(channel_, 0);
    EXPECT_TRUE(r.send(1, ReportPayload{}));
    EXPECT_FALSE(r.send(99, ReportPayload{}));
    r.broadcast(ChAdvertPayload{});
    EXPECT_EQ(r.sent(), 3u);
    EXPECT_EQ(r.send_failures(), 1u);
    simulator_.run();
    EXPECT_EQ(b.received.size(), 2u);
}

TEST_F(ChannelTest, CollisionsDestroyOverlappingReceptions) {
    ChannelParams p = lossless();
    p.airtime = 0.01;  // receptions occupy the radio for 10 ms
    Channel ch(simulator_, util::Rng(3), p);
    Sink a(simulator_, 0), b(simulator_, 1), rx(simulator_, 2);
    ch.attach(a, {0, 0}, 100.0);
    ch.attach(b, {1, 0}, 100.0);
    ch.attach(rx, {0.5, 1}, 100.0);

    // Two senders transmit to the same receiver in the same instant: both
    // packets overlap in the air and are lost.
    Packet p1;
    p1.src = 0;
    p1.dst = 2;
    p1.payload = ReportPayload{};
    Packet p2;
    p2.src = 1;
    p2.dst = 2;
    p2.payload = ReportPayload{};
    ch.unicast(std::move(p1));
    ch.unicast(std::move(p2));
    simulator_.run();
    EXPECT_TRUE(rx.received.empty());
    EXPECT_GE(ch.collisions(), 2u);
}

TEST_F(ChannelTest, SpacedTransmissionsDoNotCollide) {
    ChannelParams p = lossless();
    p.airtime = 0.01;
    Channel ch(simulator_, util::Rng(5), p);
    Sink a(simulator_, 0), rx(simulator_, 2);
    ch.attach(a, {0, 0}, 100.0);
    ch.attach(rx, {1, 0}, 100.0);

    auto send = [&] {
        Packet pk;
        pk.src = 0;
        pk.dst = 2;
        pk.payload = ReportPayload{};
        ch.unicast(std::move(pk));
    };
    send();
    simulator_.schedule(0.05, send);  // well past the first airtime
    simulator_.run();
    EXPECT_EQ(rx.received.size(), 2u);
    EXPECT_EQ(ch.collisions(), 0u);
}

TEST_F(ChannelTest, ThirdPacketCollidesWithJam) {
    ChannelParams p = lossless();
    p.airtime = 0.05;
    Channel ch(simulator_, util::Rng(7), p);
    Sink a(simulator_, 0), b(simulator_, 1), c(simulator_, 3), rx(simulator_, 2);
    ch.attach(a, {0, 0}, 100.0);
    ch.attach(b, {1, 0}, 100.0);
    ch.attach(c, {2, 0}, 100.0);
    ch.attach(rx, {0.5, 1}, 100.0);
    for (sim::ProcessId src : {0u, 1u, 3u}) {
        Packet pk;
        pk.src = src;
        pk.dst = 2;
        pk.payload = ReportPayload{};
        ch.unicast(std::move(pk));
    }
    simulator_.run();
    EXPECT_TRUE(rx.received.empty());  // the jam swallows all three
}

TEST_F(ChannelTest, CollisionsDisabledByDefault) {
    Sink a(simulator_, 0), b(simulator_, 1), rx(simulator_, 2);
    channel_.attach(a, {0, 0}, 100.0);
    channel_.attach(b, {1, 0}, 100.0);
    channel_.attach(rx, {0.5, 1}, 100.0);
    for (sim::ProcessId src : {0u, 1u}) {
        Packet pk;
        pk.src = src;
        pk.dst = 2;
        pk.payload = ReportPayload{};
        channel_.unicast(std::move(pk));
    }
    simulator_.run();
    EXPECT_EQ(rx.received.size(), 2u);
    EXPECT_EQ(channel_.collisions(), 0u);
}

TEST_F(ChannelTest, PayloadVariantRoundTrip) {
    Sink a(simulator_, 0), b(simulator_, 1);
    channel_.attach(a, {0, 0}, 100.0);
    channel_.attach(b, {10, 0}, 100.0);
    DecisionPayload d;
    d.decision_seq = 7;
    d.event_declared = true;
    d.judged_faulty = {3, 4};
    Packet p;
    p.src = 0;
    p.dst = 1;
    p.payload = d;
    channel_.unicast(std::move(p));
    simulator_.run();
    ASSERT_EQ(b.received.size(), 1u);
    const auto* got = b.received[0].as<DecisionPayload>();
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->decision_seq, 7u);
    EXPECT_TRUE(got->event_declared);
    EXPECT_EQ(got->judged_faulty, (std::vector<core::NodeId>{3, 4}));
    EXPECT_EQ(b.received[0].as<ReportPayload>(), nullptr);
}

Packet decision_packet(sim::ProcessId src, std::vector<core::NodeId> correct,
                       std::vector<core::NodeId> faulty, sim::ProcessId dst = kBroadcast) {
    DecisionPayload d;
    d.decision_seq = 11;
    d.event_declared = true;
    d.judged_correct = std::move(correct);
    d.judged_faulty = std::move(faulty);
    Packet p;
    p.src = src;
    p.dst = dst;
    p.payload = std::move(d);
    return p;
}

TEST_F(ChannelTest, BroadcastStampsEachReceiverItsOwnRssi) {
    Sink ch(simulator_, 0), a(simulator_, 1), b(simulator_, 2), c(simulator_, 3);
    channel_.attach(ch, {0, 0}, 100.0);
    channel_.attach(a, {3, 0}, 100.0);
    channel_.attach(b, {0, 4}, 100.0);
    channel_.attach(c, {-12, 0}, 100.0);
    EXPECT_EQ(channel_.broadcast(decision_packet(0, {1, 2}, {3})), 3u);
    simulator_.run();

    const std::vector<std::pair<const Sink*, double>> expected = {
        {&a, 3.0}, {&b, 4.0}, {&c, 12.0}};
    for (const auto& [sink, dist] : expected) {
        ASSERT_EQ(sink->received.size(), 1u);
        const Packet& got = sink->received[0];
        EXPECT_EQ(got.rssi, 1.0 / (1.0 + dist * dist));
        EXPECT_EQ(got.src, 0u);
        EXPECT_EQ(got.dst, kBroadcast);
        const auto* d = got.as<DecisionPayload>();
        ASSERT_NE(d, nullptr);
        EXPECT_EQ(d->decision_seq, 11u);
        EXPECT_TRUE(d->event_declared);
        EXPECT_EQ(d->judged_correct, (std::vector<core::NodeId>{1, 2}));
        EXPECT_EQ(d->judged_faulty, (std::vector<core::NodeId>{3}));
    }
    // One body for the whole broadcast: every handler saw the same object.
    EXPECT_EQ(a.bodies[0], b.bodies[0]);
    EXPECT_EQ(a.bodies[0], c.bodies[0]);
}

TEST_F(ChannelTest, CopiedPacketKeepsItsRssiAfterLaterDeliveries) {
    Sink ch(simulator_, 0), near(simulator_, 1), far(simulator_, 2);
    channel_.attach(ch, {0, 0}, 1000.0);
    channel_.attach(near, {1, 0}, 1000.0);
    channel_.attach(far, {600, 0}, 1000.0);
    channel_.broadcast(decision_packet(0, {1}, {2}));
    simulator_.run();
    ASSERT_EQ(near.received.size(), 1u);
    ASSERT_EQ(far.received.size(), 1u);
    // The near receiver ran first; the far delivery then re-stamped the
    // shared body, but the near handler's copy kept its own value.
    ASSERT_EQ(near.bodies[0], far.bodies[0]);
    EXPECT_EQ(near.received[0].rssi, 1.0 / (1.0 + 1.0));
    EXPECT_EQ(far.received[0].rssi, 1.0 / (1.0 + 600.0 * 600.0));
}

TEST_F(ChannelTest, SharedBodyFreedAfterLastDelivery) {
    Tally ch(simulator_, 0), a(simulator_, 1), b(simulator_, 2), c(simulator_, 3);
    channel_.attach(ch, {0, 0}, 100.0);
    channel_.attach(a, {1, 0}, 100.0);
    channel_.attach(b, {2, 0}, 100.0);
    channel_.attach(c, {3, 0}, 100.0);
    // Warm-up round: grows the event arena to its steady-state size.
    channel_.broadcast(decision_packet(0, {}, {}));
    simulator_.run();

    Packet packet = decision_packet(0, {}, {});
    const sim::BodyPool& pool = simulator_.body_pool();
    const long before = live_allocations();
    EXPECT_EQ(pool.in_use(), 0u);
    const std::size_t scheduled = channel_.broadcast(std::move(packet));
    const long during = live_allocations();
    const std::size_t in_use_during = pool.in_use();
    simulator_.step();
    const std::size_t in_use_after_first = pool.in_use();
    simulator_.run();
    const long after = live_allocations();

    EXPECT_EQ(scheduled, 3u);
    // The body reuses the warm-up's pooled block: a warm send allocates
    // nothing, neither for the body nor per delivery.
    EXPECT_EQ(during, before);
    EXPECT_EQ(in_use_during, 1u);       // one body for all three deliveries
    EXPECT_EQ(in_use_after_first, 1u);  // still shared by the pending deliveries
    EXPECT_EQ(pool.in_use(), 0u);       // released once the last one ran
    EXPECT_EQ(after, before);
    EXPECT_EQ(a.received + b.received + c.received, 6u);
}

#ifdef TIBFIT_ASAN
// A released body goes back to the simulator's pool rather than to the
// allocator, so AddressSanitizer only sees a use after release if the pool
// poisons the block.
TEST_F(ChannelTest, ReleasedBodyIsPoisonedUnderAsan) {
    Sink ch(simulator_, 0), a(simulator_, 1), b(simulator_, 2);
    channel_.attach(ch, {0, 0}, 100.0);
    channel_.attach(a, {1, 0}, 100.0);
    channel_.attach(b, {2, 0}, 100.0);
    channel_.broadcast(decision_packet(0, {}, {}));
    simulator_.step();
    ASSERT_EQ(a.bodies.size(), 1u);
    const void* body = a.bodies[0];
    EXPECT_FALSE(__asan_address_is_poisoned(body));  // b's delivery is pending
    simulator_.run();
    ASSERT_EQ(b.bodies.size(), 1u);
    ASSERT_EQ(b.bodies[0], body);
    EXPECT_TRUE(__asan_address_is_poisoned(body));

    // Reused for the next send, and unpoisoned again.
    channel_.broadcast(decision_packet(0, {}, {}));
    simulator_.step();
    ASSERT_EQ(a.bodies.size(), 2u);
    EXPECT_EQ(a.bodies[1], body);
    EXPECT_FALSE(__asan_address_is_poisoned(body));
    simulator_.run();
    EXPECT_TRUE(__asan_address_is_poisoned(body));
}
#endif

TEST_F(ChannelTest, SharedBodyFreedWhenCollisionCancelsDelivery) {
    ChannelParams p = lossless();
    p.airtime = 0.01;
    Channel ch(simulator_, util::Rng(3), p);
    Tally a(simulator_, 0), b(simulator_, 1), rx(simulator_, 2);
    ch.attach(a, {0, 0}, 100.0);
    ch.attach(b, {1, 0}, 100.0);
    ch.attach(rx, {0.5, 1}, 100.0);
    auto collide = [&] {
        ch.unicast(decision_packet(0, {}, {}, 2));
        ch.unicast(decision_packet(1, {}, {}, 2));
    };
    // Warm-up round: sizes the arena, free list and reception list.
    collide();
    simulator_.run_until(1.0);

    const long before = live_allocations();
    collide();
    const long after = live_allocations();
    EXPECT_EQ(simulator_.pending(), 0u);  // the first delivery was cancelled
    EXPECT_EQ(after, before);             // ...and its body freed with it
    simulator_.run();
    EXPECT_EQ(rx.received, 0u);
}

TEST_F(ChannelTest, SharedBodyFreedWhenSimulatorDestroyedWithPendingDeliveries) {
    std::size_t pending = 0;
    const long before = live_allocations();
    {
        sim::Simulator sim;
        Channel ch(sim, util::Rng(9), lossless());
        Tally a(sim, 0), b(sim, 1), c(sim, 2);
        ch.attach(a, {0, 0}, 100.0);
        ch.attach(b, {1, 0}, 100.0);
        ch.attach(c, {2, 0}, 100.0);
        ch.add_monitor(2, 1);
        ch.broadcast(decision_packet(0, {1, 2}, {0}));
        ch.unicast(decision_packet(0, {1}, {2}, 1));
        pending = sim.pending();
    }
    EXPECT_EQ(pending, 4u);  // two broadcast receivers, the unicast, one snoop
    EXPECT_EQ(live_allocations(), before);
}

// ---- The kept Packet entry points vs the Radio path ----

/// Every packet a process received, with its delivery time, as text.
class Transcript : public sim::Process {
  public:
    Transcript(sim::Simulator& s, sim::ProcessId id) : sim::Process(s, id) {}
    void handle_packet(const Packet& p) override {
        std::ostringstream os;
        os << sim().now() << " " << p.src << "->" << p.dst << " sent " << p.sent_at << " rssi "
           << p.rssi << " kind " << p.payload.index();
        if (const auto* r = p.as<ReportPayload>()) {
            os << " report " << r->offset.r << "," << r->offset.theta << "," << r->positive << ","
               << r->has_location;
        } else if (const auto* d = p.as<DecisionPayload>()) {
            os << " decision " << d->decision_seq << "," << d->event_declared << ",";
            for (core::NodeId n : d->judged_correct) os << "c" << n;
            for (core::NodeId n : d->judged_faulty) os << "f" << n;
        } else if (const auto* e = p.as<RelayEnvelopePayload>()) {
            os << " envelope " << e->source << "," << e->final_dst << "," << e->seq << ","
               << int{e->ttl} << "," << e->report.positive;
        } else if (const auto* a = p.as<RelayAckPayload>()) {
            os << " ack " << a->source << "," << a->seq;
        }
        lines.push_back(os.str());
    }
    std::vector<std::string> lines;
};

/// Sends the same mixed traffic through a lossy channel inside an active
/// fault window (drop, duplicate, jitter, reorder), with one monitor, either
/// through Radio or through Channel's Packet entry points, then probes both
/// loss streams with a tail of broadcasts. Returns everything observable.
std::vector<std::string> entry_point_run(bool via_packet) {
    sim::Simulator sim;
    ChannelParams params;
    params.drop_probability = 0.2;
    Channel ch(sim, util::Rng(21), params);
    ChannelFaultWindow w;
    w.start = 0.0;
    w.end = 1e9;
    w.extra_drop = 0.2;
    w.duplicate_probability = 0.3;
    w.delay_jitter = 0.01;
    w.reorder_probability = 0.2;
    w.reorder_hold = 0.05;
    ch.set_fault_schedule({w}, util::Rng(99));
    std::vector<std::unique_ptr<Transcript>> nodes;
    for (sim::ProcessId id = 0; id < 5; ++id) {
        nodes.push_back(std::make_unique<Transcript>(sim, id));
        ch.attach(*nodes.back(), {7.0 * id, 3.0 * (id % 2)}, 40.0);
    }
    ch.add_monitor(4, 1);  // node 4 overhears traffic to and from node 1

    const auto unicast = [&](sim::ProcessId src, sim::ProcessId dst, Payload payload) {
        if (!via_packet) return Radio(ch, src).send(dst, std::move(payload));
        Packet p;
        p.src = src;
        p.dst = dst;
        p.sent_at = -1.0;  // the channel stamps its own
        p.rssi = -1.0;
        p.payload = std::move(payload);
        return ch.unicast(p);  // an lvalue, as the benchmark's probes pass it
    };
    const auto broadcast = [&](sim::ProcessId src, Payload payload) {
        if (!via_packet) return Radio(ch, src).broadcast(std::move(payload));
        Packet p;
        p.src = src;
        p.dst = 3;  // the channel addresses a broadcast itself
        p.payload = std::move(payload);
        return ch.broadcast(p);
    };

    std::vector<std::string> out;
    for (int round = 0; round < 40; ++round) {
        const auto src = static_cast<sim::ProcessId>(round % 4);
        const auto dst = static_cast<sim::ProcessId>((round + 1) % 5);
        ReportPayload report;
        report.offset = core::PolarOffset{1.0 + round, 0.1 * round};
        report.positive = round % 3 != 0;
        report.has_location = round % 2 == 0;
        RelayEnvelopePayload env;
        env.source = src;
        env.final_dst = dst;
        env.seq = static_cast<std::uint32_t>(round);
        env.report = report;
        DecisionPayload decision;
        decision.decision_seq = static_cast<std::uint64_t>(round);
        decision.event_declared = round % 2 == 1;
        decision.judged_correct = {src, dst};
        decision.judged_faulty = {static_cast<core::NodeId>(round % 5)};
        sim.schedule(0.1 * round, [&, src, dst, report, env, decision, round] {
            std::ostringstream os;
            os << unicast(src, dst, report) << unicast(dst, src, env)
               << unicast(src, 1, RelayAckPayload{src, static_cast<std::uint32_t>(round)})
               << unicast(src, 99, report) << broadcast(src, decision);
            out.push_back(os.str());
        });
    }
    sim.run();
    // The tail: 20 more broadcasts each draw from both loss streams, so
    // they differ unless both streams stand where they stood in the other
    // run.
    for (int i = 0; i < 20; ++i) out.push_back(std::to_string(broadcast(0, ChAdvertPayload{})));
    sim.run();

    for (const auto& n : nodes) out.insert(out.end(), n->lines.begin(), n->lines.end());
    std::ostringstream counters;
    counters << ch.delivered() << " " << ch.dropped() << " " << ch.out_of_range() << " "
             << ch.injected_drops() << " " << ch.injected_duplicates() << " "
             << ch.injected_delays() << " " << ch.injected_reorders();
    out.push_back(counters.str());
    return out;
}

// Channel::unicast(Packet) and broadcast(Packet) forward into the path
// Radio takes: same deliveries, receivers, rssi, payloads, counters and
// loss-stream positions.
TEST_F(ChannelTest, PacketEntryPointsMatchRadio) {
    const std::vector<std::string> radio = entry_point_run(false);
    const std::vector<std::string> packet = entry_point_run(true);
    EXPECT_EQ(radio, packet);
    // The run exercised every fault the window injects.
    std::istringstream counters(radio.back());
    std::size_t delivered, dropped, out_of_range, drops, duplicates, delays, reorders;
    counters >> delivered >> dropped >> out_of_range >> drops >> duplicates >> delays >> reorders;
    EXPECT_GT(delivered, 100u);
    EXPECT_GT(dropped, 0u);
    EXPECT_EQ(out_of_range, 40u);
    EXPECT_GT(drops, 0u);
    EXPECT_GT(duplicates, 0u);
    EXPECT_GT(delays, 0u);
    EXPECT_GT(reorders, 0u);
}

// ---- Differential test: cached broadcast plans vs the per-send walk ----

/// One broadcast delivery as its receiver saw it.
struct Heard {
    sim::ProcessId to;
    double at;
    double rssi;
    bool operator==(const Heard&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Heard& h) {
    return os << "{to " << h.to << " at " << h.at << " rssi " << h.rssi << "}";
}

/// A test-local copy of the broadcast path without per-sender plans: walk
/// every endpoint in id order and measure the distance, order the in-range
/// receivers by (delay, id), draw each one's coins and stage its
/// deliveries, then sort them by (time, staging order).
class LegacyMedium {
  public:
    LegacyMedium(util::Rng rng, ChannelParams params) : rng_(rng), params_(params) {}

    void attach(sim::ProcessId id, util::Vec2 position, double range) {
        endpoints_[id] = Ep{position, range, -1.0};
    }
    void detach(sim::ProcessId id) { endpoints_.erase(id); }
    void set_position(sim::ProcessId id, util::Vec2 position) {
        endpoints_.at(id).position = position;
    }
    void set_drop_probability(sim::ProcessId id, double p) { endpoints_.at(id).drop = p; }
    void set_fault_schedule(std::vector<ChannelFaultWindow> windows, util::Rng rng) {
        windows_ = std::move(windows);
        fault_rng_ = rng;
    }

    /// The deliveries of one broadcast from `src` at `now`, in pop order.
    std::vector<Heard> broadcast(sim::ProcessId src, double now) {
        const Ep& from = endpoints_.at(src);
        struct Receiver {
            sim::ProcessId id;
            double dist;
            double delay;
        };
        std::vector<Receiver> receivers;
        for (const auto& [id, ep] : endpoints_) {
            if (id == src) continue;
            const double dist = util::distance(from.position, ep.position);
            if (dist > from.range) {
                ++out_of_range;
                continue;
            }
            receivers.push_back(
                Receiver{id, dist, params_.base_latency + dist / params_.propagation_speed});
        }
        // (Not std::stable_sort: its nothrow buffer would bypass this file's
        // counting operator new but not its operator delete.)
        std::sort(receivers.begin(), receivers.end(), [](const Receiver& a, const Receiver& b) {
            if (a.delay != b.delay) return a.delay < b.delay;
            return a.id < b.id;
        });
        staged_.clear();
        for (const Receiver& r : receivers) transmit(r.id, r.dist, from, now);
        // The fan-out's (time, seq) order; seq is the staging index.
        std::vector<std::size_t> order(staged_.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
            if (staged_[a].at != staged_[b].at) return staged_[a].at < staged_[b].at;
            return a < b;
        });
        std::vector<Heard> popped;
        for (std::size_t i : order) popped.push_back(staged_[i]);
        return popped;
    }

    /// Unicast's coin draws; true if the delivery was scheduled.
    bool unicast(sim::ProcessId src, sim::ProcessId dst, double now) {
        const Ep& from = endpoints_.at(src);
        staged_.clear();
        return transmit(dst, util::distance(from.position, endpoints_.at(dst).position), from,
                        now);
    }

    std::size_t delivered = 0, dropped = 0, out_of_range = 0;
    std::size_t injected_drops = 0, injected_duplicates = 0;
    std::size_t injected_delays = 0, injected_reorders = 0;

  private:
    struct Ep {
        util::Vec2 position;
        double range;
        double drop;
    };

    bool transmit(sim::ProcessId to, double dist, const Ep& from, double now) {
        if (rng_.chance(from.drop >= 0.0 ? from.drop : params_.drop_probability)) {
            ++dropped;
            return false;
        }
        const ChannelFaultWindow* w = nullptr;
        for (const auto& cand : windows_) {
            if (now >= cand.start && now < cand.end) {
                w = &cand;
                break;
            }
        }
        if (!w) {
            deliver(to, dist, now, 0.0);
            return true;
        }
        if (w->extra_drop > 0.0 && fault_rng_.chance(w->extra_drop)) {
            ++injected_drops;
            return false;
        }
        const double extra = extra_delay(*w);
        if (w->duplicate_probability > 0.0 && fault_rng_.chance(w->duplicate_probability)) {
            ++injected_duplicates;
            deliver(to, dist, now, extra_delay(*w));
        }
        deliver(to, dist, now, extra);
        return true;
    }

    double extra_delay(const ChannelFaultWindow& w) {
        double extra = 0.0;
        if (w.delay_jitter > 0.0) {
            extra += fault_rng_.uniform(0.0, w.delay_jitter);
            ++injected_delays;
        }
        if (w.reorder_probability > 0.0 && fault_rng_.chance(w.reorder_probability)) {
            extra += w.reorder_hold;
            ++injected_reorders;
        }
        return extra;
    }

    void deliver(sim::ProcessId to, double dist, double now, double extra) {
        const double delay = params_.base_latency + dist / params_.propagation_speed + extra;
        staged_.push_back(Heard{to, now + delay, 1.0 / (1.0 + dist * dist)});
        ++delivered;
    }

    util::Rng rng_;
    ChannelParams params_;
    std::map<sim::ProcessId, Ep> endpoints_;
    std::vector<ChannelFaultWindow> windows_;
    util::Rng fault_rng_{0};
    std::vector<Heard> staged_;
};

/// Logs every broadcast delivery it receives into a shared log.
class Listener : public sim::Process {
  public:
    Listener(sim::Simulator& s, sim::ProcessId id, std::vector<Heard>& log)
        : sim::Process(s, id), log_(&log) {}
    void handle_packet(const Packet& p) override {
        if (p.dst == kBroadcast) log_->push_back(Heard{id(), sim().now(), p.rssi});
    }

  private:
    std::vector<Heard>* log_;
};

/// Drives a Channel and a LegacyMedium through the same operations and
/// checks after each send that both produced the same deliveries, in the
/// same order, with the same counters and the same natural-loss stream.
class BroadcastDifferential {
  public:
    static constexpr int kSide = 9;  ///< a kSide x kSide lattice of nodes
    static constexpr double kSpacing = 10.0;

    BroadcastDifferential(ChannelParams params, std::uint64_t seed, double range)
        : channel_(sim_, util::Rng(seed), params),
          legacy_(util::Rng(seed), params),
          range_(range) {
        for (int y = 0; y < kSide; ++y) {
            for (int x = 0; x < kSide; ++x) {
                const auto id = static_cast<sim::ProcessId>(nodes_.size());
                nodes_.push_back(std::make_unique<Listener>(sim_, id, log_));
                attach(id, {kSpacing * x, kSpacing * y});
            }
        }
        // The probe pair: `probe_` unicasts to `probe_ + 1` with loss 1/2,
        // so each probe reveals one bit of the natural-loss stream's next
        // draw. Both also hear (and are counted in) every broadcast walk.
        probe_ = static_cast<sim::ProcessId>(nodes_.size());
        for (int i = 0; i < 2; ++i) {
            const auto id = static_cast<sim::ProcessId>(nodes_.size());
            nodes_.push_back(std::make_unique<Listener>(sim_, id, log_));
            attach(id, {kSpacing * kSide / 2.0 + i, kSpacing * kSide / 2.0});
        }
        set_drop(probe_, 0.5);
    }

    std::size_t size() const { return nodes_.size() - 2; }  ///< lattice nodes

    void attach(sim::ProcessId id, util::Vec2 position) {
        channel_.attach(*nodes_[id], position, range_);
        legacy_.attach(id, position, range_);
    }
    void detach(sim::ProcessId id) {
        channel_.detach(id);
        legacy_.detach(id);
    }
    void move(sim::ProcessId id, util::Vec2 position) {
        channel_.set_position(id, position);
        legacy_.set_position(id, position);
    }
    void set_drop(sim::ProcessId id, double p) {
        channel_.set_drop_probability(id, p);
        legacy_.set_drop_probability(id, p);
    }
    void set_faults(const std::vector<ChannelFaultWindow>& windows, std::uint64_t seed) {
        channel_.set_fault_schedule(windows, util::Rng(seed));
        legacy_.set_fault_schedule(windows, util::Rng(seed));
    }
    /// Moves the clock to `t` (no sends are pending between operations).
    void advance_to(double t) { sim_.run_until(t); }
    double now() const { return sim_.now(); }

    /// One broadcast from `src`, compared delivery by delivery; then the
    /// clock moves on by 1 so no reception is still on the air.
    void send(sim::ProcessId src) {
        const double at = sim_.now();
        const std::vector<Heard> expected = legacy_.broadcast(src, at);
        Packet p;
        p.src = src;
        p.payload = DecisionPayload{};
        log_.clear();
        channel_.broadcast(std::move(p));
        sim_.run();
        ASSERT_EQ(log_, expected) << "send from " << src << " at " << at;
        sim_.run_until(at + 1.0);
        ASSERT_TRUE(counters_match()) << "send from " << src << " at " << at;
        probe_rng();
    }

    ::testing::AssertionResult counters_match() const {
        const std::size_t got[] = {channel_.delivered(),         channel_.dropped(),
                                   channel_.out_of_range(),      channel_.injected_drops(),
                                   channel_.injected_duplicates(), channel_.injected_delays(),
                                   channel_.injected_reorders()};
        const std::size_t want[] = {legacy_.delivered,         legacy_.dropped,
                                    legacy_.out_of_range,      legacy_.injected_drops,
                                    legacy_.injected_duplicates, legacy_.injected_delays,
                                    legacy_.injected_reorders};
        for (std::size_t i = 0; i < std::size(got); ++i) {
            if (got[i] != want[i]) {
                return ::testing::AssertionFailure()
                       << "counter " << i << ": " << got[i] << " vs " << want[i];
            }
        }
        return ::testing::AssertionSuccess();
    }

  private:
    /// Compares the next few natural-loss draws of both media.
    void probe_rng() {
        for (int i = 0; i < 4; ++i) {
            const double at = sim_.now();
            const bool want = legacy_.unicast(probe_, probe_ + 1, at);
            Packet p;
            p.src = probe_;
            p.dst = probe_ + 1;
            p.payload = ReportPayload{};
            ASSERT_EQ(channel_.unicast(std::move(p)), want) << "probe " << i << " at " << at;
            sim_.run_until(at + 1.0);
        }
    }

    sim::Simulator sim_;
    std::vector<Heard> log_;
    std::vector<std::unique_ptr<Listener>> nodes_;
    Channel channel_;
    LegacyMedium legacy_;
    double range_;
    sim::ProcessId probe_ = 0;
};

/// Runs `ops` random operations: mostly sends, mixed with moves, detach /
/// re-attach pairs and loss overrides, all between sends.
void run_differential(BroadcastDifferential& d, std::uint64_t seed, int ops) {
    std::mt19937_64 rng(seed);
    const auto draw = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
    const auto lattice_point = [&] {
        using BD = BroadcastDifferential;
        return util::Vec2{BD::kSpacing * static_cast<double>(draw(BD::kSide)),
                          BD::kSpacing * static_cast<double>(draw(BD::kSide))};
    };
    std::vector<sim::ProcessId> detached;
    for (int op = 0; op < ops; ++op) {
        const auto node = static_cast<sim::ProcessId>(draw(d.size()));
        const bool attached =
            std::find(detached.begin(), detached.end(), node) == detached.end();
        switch (draw(8)) {
            case 0:  // moves onto a lattice point: equal distances stay common
                if (attached) d.move(node, lattice_point());
                break;
            case 1:
                if (attached) {
                    d.detach(node);
                    detached.push_back(node);
                } else {
                    d.attach(node, lattice_point());
                    detached.erase(std::find(detached.begin(), detached.end(), node));
                }
                break;
            case 2:
                if (attached) d.set_drop(node, draw(2) ? 0.0 : 0.4);
                break;
            default:
                if (attached) d.send(node);
                break;
        }
        if (::testing::Test::HasFatalFailure()) return;
    }
}

TEST(BroadcastPlan, MatchesPerSendWalkOnLatticeWithLoss) {
    ChannelParams p;
    p.drop_probability = 0.2;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        BroadcastDifferential d(p, seed, 35.0);
        d.set_drop(0, 0.0);  // a lossless sender draws no coins at all
        run_differential(d, seed, 400);
        EXPECT_TRUE(d.counters_match()) << "seed " << seed;
    }
}

TEST(BroadcastPlan, MatchesPerSendWalkInsideFaultWindows) {
    ChannelParams p;
    p.drop_probability = 0.1;
    ChannelFaultWindow w;
    w.extra_drop = 0.1;
    w.duplicate_probability = 0.3;
    w.delay_jitter = 0.002;
    w.reorder_probability = 0.2;
    w.reorder_hold = 0.003;
    for (std::uint64_t seed : {4u, 5u}) {
        BroadcastDifferential d(p, seed, 35.0);
        // Windows cover some sends and miss others (each op moves the clock
        // by at least 1).
        std::vector<ChannelFaultWindow> windows;
        for (double start : {20.0, 250.0, 600.0}) {
            w.start = start;
            w.end = start + 150.0;
            windows.push_back(w);
        }
        d.set_faults(windows, seed + 100);
        run_differential(d, seed, 400);
        EXPECT_TRUE(d.counters_match()) << "seed " << seed;
        EXPECT_GT(d.now(), 800.0) << "the run should reach past the last window";
    }
}

TEST(BroadcastPlan, MatchesPerSendWalkWithAirtime) {
    ChannelParams p;
    p.drop_probability = 0.2;
    p.airtime = 0.001;
    for (std::uint64_t seed : {6u, 7u}) {
        BroadcastDifferential d(p, seed, 35.0);
        run_differential(d, seed, 300);
        EXPECT_TRUE(d.counters_match()) << "seed " << seed;
    }
}

// At t = 1e12 one ulp is about 1.2e-4 s, more than the delay difference of
// neighbouring lattice distances: distinct delays round to the same
// delivery time. Staging in (delay, id) order still gives the fan-out's
// (time, seq) order, since now + delay is monotone in delay, so the
// deliveries keep (delay, id) order with no re-sort.
TEST(BroadcastPlan, MatchesPerSendWalkWhenDeliveryTimesMerge) {
    ChannelParams p;
    p.drop_probability = 0.1;
    for (std::uint64_t seed : {8u, 9u}) {
        BroadcastDifferential d(p, seed, 60.0);
        d.advance_to(1e12);
        run_differential(d, seed, 200);
        EXPECT_TRUE(d.counters_match()) << "seed " << seed;
    }
}

/// What a lattice attached in `order` hears: every delivery of a few
/// broadcasts, the channel's counters, then the next natural-loss draws.
struct LatticeOutcome {
    std::vector<Heard> heard;
    std::vector<std::size_t> counters;
    std::vector<bool> next_draws;
    bool operator==(const LatticeOutcome&) const = default;
};

LatticeOutcome broadcast_on_lattice(const std::vector<sim::ProcessId>& order) {
    constexpr sim::ProcessId kSide = 7;
    ChannelParams p;
    p.drop_probability = 0.2;
    sim::Simulator sim;
    LatticeOutcome out;
    std::vector<std::unique_ptr<Listener>> nodes;
    for (sim::ProcessId id = 0; id < kSide * kSide; ++id) {
        nodes.push_back(std::make_unique<Listener>(sim, id, out.heard));
    }
    Channel ch(sim, util::Rng(11), p);
    for (sim::ProcessId id : order) {
        ch.attach(*nodes[id], {10.0 * (id % kSide), 10.0 * (id / kSide)}, 35.0);
    }
    // Senders in the middle, at a corner and on an edge: many receivers
    // share a distance, so ties in delay are common.
    for (sim::ProcessId src : {24u, 0u, 10u, 48u, 24u}) {
        Packet packet;
        packet.src = src;
        packet.payload = DecisionPayload{};
        ch.broadcast(std::move(packet));
        sim.run();
    }
    out.counters = {ch.delivered(), ch.dropped(), ch.out_of_range()};
    // Each unicast to a neighbour in range reveals one bit of the next draw.
    for (int i = 0; i < 32; ++i) {
        Packet packet;
        packet.src = 0;
        packet.dst = 1;
        packet.payload = ReportPayload{};
        out.next_draws.push_back(ch.unicast(std::move(packet)));
    }
    return out;
}

// Broadcasts depend on the ids and positions alone: the order in which the
// endpoints were attached never reaches a delivery, a counter or the loss
// stream.
TEST(BroadcastPlan, AttachOrderDoesNotChangeBroadcasts) {
    std::vector<sim::ProcessId> order(49);
    for (sim::ProcessId id = 0; id < order.size(); ++id) order[id] = id;
    std::mt19937_64 rng(17);
    std::shuffle(order.begin(), order.end(), rng);
    const LatticeOutcome first = broadcast_on_lattice(order);
    EXPECT_GT(first.counters[1], 0u) << "the loss coins should fire";
    for (int shuffle = 0; shuffle < 2; ++shuffle) {
        std::shuffle(order.begin(), order.end(), rng);
        const LatticeOutcome again = broadcast_on_lattice(order);
        EXPECT_EQ(again.counters, first.counters) << "shuffle " << shuffle;
        EXPECT_EQ(again.heard, first.heard) << "shuffle " << shuffle;
        EXPECT_EQ(again.next_draws, first.next_draws) << "shuffle " << shuffle;
    }
}

}  // namespace
}  // namespace tibfit::net
