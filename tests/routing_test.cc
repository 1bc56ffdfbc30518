#include "net/routing.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace tibfit::net {
namespace {

/// A 5-node line with range 12 and 10-unit spacing: only neighbours hear
/// each other.
std::vector<RouterEntry> line() {
    std::vector<RouterEntry> e;
    for (int i = 0; i < 5; ++i) {
        e.push_back({static_cast<sim::ProcessId>(i), {10.0 * i, 0.0}, 12.0});
    }
    return e;
}

TEST(Routing, SelfRoute) {
    RoutingTable rt(line());
    EXPECT_EQ(rt.next_hop(2, 2), 2u);
    EXPECT_EQ(rt.hops(2, 2), 0u);
}

TEST(Routing, LineHopsAndNextHop) {
    RoutingTable rt(line());
    EXPECT_EQ(rt.hops(0, 4), 4u);
    EXPECT_EQ(rt.next_hop(0, 4), 1u);
    EXPECT_EQ(rt.next_hop(1, 4), 2u);
    EXPECT_EQ(rt.next_hop(3, 4), 4u);
    EXPECT_EQ(rt.hops(4, 0), 4u);
    EXPECT_EQ(rt.next_hop(4, 0), 3u);
}

TEST(Routing, UnreachablePartition) {
    auto e = line();
    e.push_back({99, {1000.0, 1000.0}, 12.0});
    RoutingTable rt(std::move(e));
    EXPECT_FALSE(rt.reachable(0, 99));
    EXPECT_EQ(rt.next_hop(0, 99), sim::kNoProcess);
    EXPECT_TRUE(rt.reachable(0, 4));
}

TEST(Routing, UnknownIds) {
    RoutingTable rt(line());
    EXPECT_EQ(rt.next_hop(0, 77), sim::kNoProcess);
    EXPECT_EQ(rt.next_hop(77, 0), sim::kNoProcess);
    EXPECT_FALSE(rt.reachable(77, 0));
}

TEST(Routing, LongRangeNodeIsOneHopOutbound) {
    // Node 5 has a big radio and sits 10 above node 2: it can transmit to
    // anyone in one hop, but others must route *to* it through node 2
    // (the only line node with 5 in range).
    auto e = line();
    e.push_back({5, {20.0, 10.0}, 100.0});
    RoutingTable rt(std::move(e));
    EXPECT_EQ(rt.hops(5, 0), 1u);
    EXPECT_EQ(rt.hops(0, 5), 3u);  // 0 -> 1 -> 2 -> 5
    EXPECT_EQ(rt.next_hop(2, 5), 5u);
}

TEST(Routing, AsymmetricRangesRespectDirection) {
    // u hears far, v hears near: u -> v only if v in u's range.
    std::vector<RouterEntry> e{
        {0, {0, 0}, 100.0},  // long-range
        {1, {50, 0}, 10.0},  // short-range
    };
    RoutingTable rt(std::move(e));
    EXPECT_TRUE(rt.reachable(0, 1));   // 0's range covers 1
    EXPECT_FALSE(rt.reachable(1, 0));  // 1 cannot reach back
}

TEST(Routing, NeighboursList) {
    RoutingTable rt(line());
    const auto n2 = rt.neighbours(2);
    ASSERT_EQ(n2.size(), 2u);
    EXPECT_EQ(n2[0], 1u);
    EXPECT_EQ(n2[1], 3u);
    EXPECT_EQ(rt.neighbours(0).size(), 1u);
    EXPECT_TRUE(rt.neighbours(77).empty());
}

TEST(Routing, RebuildInvalidatesRoutes) {
    RoutingTable rt(line());
    EXPECT_EQ(rt.hops(0, 4), 4u);
    // Move node 0 next to node 4.
    auto e = line();
    e[0].position = {35.0, 0.0};
    rt.rebuild(std::move(e));
    EXPECT_EQ(rt.hops(0, 4), 1u);
}

TEST(Routing, GridDiagonalPath) {
    // 4x4 grid, spacing 10, range 12 (only axis-aligned edges).
    std::vector<RouterEntry> e;
    for (int y = 0; y < 4; ++y) {
        for (int x = 0; x < 4; ++x) {
            e.push_back({static_cast<sim::ProcessId>(4 * y + x),
                         {10.0 * x, 10.0 * y},
                         12.0});
        }
    }
    RoutingTable rt(std::move(e));
    EXPECT_EQ(rt.hops(0, 15), 6u);  // Manhattan distance in hops
    // The next hop must be a strict progress step.
    const auto nh = rt.next_hop(0, 15);
    EXPECT_TRUE(nh == 1u || nh == 4u);
}

// The ids a binary_failover run routes over: sensors 0..9, the CH (10)
// and the standby CH (14), in the harness's order. Sensors form a line
// (range 12, 10-unit spacing) ending at the CH; the standby hovers over the
// line's middle with a long outbound range. Ids in the gaps and past the
// end are unknown.
std::vector<RouterEntry> failover_ids() {
    std::vector<RouterEntry> e = line();
    for (int i = 5; i < 10; ++i) {
        e.push_back({static_cast<sim::ProcessId>(i), {10.0 * i, 0.0}, 12.0});
    }
    e.push_back({10, {100.0, 0.0}, 12.0});
    e.push_back({14, {45.0, 10.0}, 100.0});
    return e;
}

TEST(RoutingTest, SparseIdsRouteAsBefore) {
    RoutingTable rt(failover_ids());
    EXPECT_EQ(rt.size(), 12u);

    // Sensors reach the standby through 4 or 5, the only ones it covers...
    EXPECT_EQ(rt.hops(0, 14), 5u);
    EXPECT_EQ(rt.next_hop(4, 14), 14u);
    EXPECT_EQ(rt.next_hop(5, 14), 14u);
    EXPECT_EQ(rt.hops(10, 14), 6u);
    // ... while it reaches everyone in one hop.
    EXPECT_EQ(rt.hops(14, 0), 1u);
    EXPECT_EQ(rt.next_hop(14, 10), 10u);
    EXPECT_EQ(rt.next_hop(14, 14), 14u);
    // So the shortest line-to-CH paths detour through the standby.
    EXPECT_EQ(rt.hops(0, 10), 6u);
    EXPECT_EQ(rt.next_hop(0, 10), 1u);
    EXPECT_EQ(rt.next_hop(4, 10), 14u);
    EXPECT_EQ(rt.next_hop(9, 10), 10u);
    EXPECT_EQ(rt.hops(10, 0), 7u);
    EXPECT_EQ(rt.next_hop(10, 0), 9u);
    EXPECT_EQ(rt.hops(10, 10), 0u);
    EXPECT_EQ(rt.neighbours(14).size(), 11u);
    EXPECT_EQ(rt.neighbours(10), (std::vector<sim::ProcessId>{9}));
    EXPECT_EQ(rt.neighbours(5), (std::vector<sim::ProcessId>{4, 6, 14}));

    for (sim::ProcessId unknown : {sim::ProcessId{11}, sim::ProcessId{12}, sim::ProcessId{13},
                                   sim::ProcessId{15}, sim::ProcessId{1000}, sim::kNoProcess}) {
        EXPECT_EQ(rt.next_hop(0, unknown), sim::kNoProcess) << unknown;
        EXPECT_EQ(rt.next_hop(unknown, 0), sim::kNoProcess) << unknown;
        EXPECT_EQ(rt.next_hop(unknown, unknown), sim::kNoProcess) << unknown;
        EXPECT_EQ(rt.hops(14, unknown), SIZE_MAX) << unknown;
        EXPECT_FALSE(rt.reachable(unknown, 10)) << unknown;
        EXPECT_TRUE(rt.neighbours(unknown).empty()) << unknown;
    }
}

TEST(RoutingTest, RejectsOutOfRangeAndDuplicateIds) {
    RoutingTable rt(line());
    const auto with = [](RouterEntry extra) {
        std::vector<RouterEntry> e = line();
        e.push_back(extra);
        return e;
    };
    EXPECT_THROW(rt.rebuild(with({sim::kMaxProcessId, {5.0, 0.0}, 12.0})),
                 std::invalid_argument);
    EXPECT_THROW(rt.rebuild(with({sim::kNoProcess, {5.0, 0.0}, 12.0})), std::invalid_argument);
    EXPECT_THROW(rt.rebuild(with({3, {35.0, 5.0}, 12.0})), std::invalid_argument);
    EXPECT_THROW(RoutingTable(with({0, {0.0, 0.0}, 12.0})), std::invalid_argument);
    // A refused rebuild leaves the table as it was.
    EXPECT_EQ(rt.size(), 5u);
    EXPECT_EQ(rt.hops(0, 4), 4u);
    EXPECT_EQ(rt.next_hop(3, 4), 4u);
    // The largest id the dense index takes is fine.
    rt.rebuild(with({sim::kMaxProcessId - 1, {45.0, 0.0}, 12.0}));
    EXPECT_EQ(rt.next_hop(sim::kMaxProcessId - 1, 0), 4u);
    EXPECT_EQ(rt.hops(0, sim::kMaxProcessId - 1), 5u);
}

}  // namespace
}  // namespace tibfit::net
