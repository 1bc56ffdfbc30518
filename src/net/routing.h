// Min-hop routing over the radio connectivity graph — the substrate for
// the paper's multi-hop extension (Section 3.4: "TIBFIT can also be
// extended to scenarios where the sensing nodes are more than one hop away
// from the data sink").
//
// The graph has an edge u -> v when v lies within u's radio range. Routes
// are computed by breadth-first search from each destination (so every
// node's next hop toward that destination falls out of one BFS) and
// memoized; call rebuild() after moving nodes. Ids are dense, like the
// channel's: a lookup is an index into a vector, never a hash probe.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/process.h"
#include "util/vec2.h"

namespace tibfit::net {

/// One node's placement for routing purposes.
struct RouterEntry {
    sim::ProcessId id = sim::kNoProcess;
    util::Vec2 position;
    double range = 0.0;
};

/// Static min-hop routing table.
class RoutingTable {
  public:
    RoutingTable() = default;
    explicit RoutingTable(std::vector<RouterEntry> entries);

    /// Replaces the topology and clears all memoized routes. Throws
    /// std::invalid_argument, leaving the table as it was, on an id of 2^20
    /// or more (kNoProcess included) or an id that appears twice.
    void rebuild(std::vector<RouterEntry> entries);

    /// Number of nodes known to the router.
    std::size_t size() const { return entries_.size(); }

    /// Next hop on a shortest path from `from` toward `to`; kNoProcess if
    /// unreachable or either id is unknown. `next_hop(x, x) == x`.
    sim::ProcessId next_hop(sim::ProcessId from, sim::ProcessId to) const;

    /// Hop count of the shortest path (0 for self); SIZE_MAX if
    /// unreachable.
    std::size_t hops(sim::ProcessId from, sim::ProcessId to) const;

    /// True if `to` is reachable from `from`.
    bool reachable(sim::ProcessId from, sim::ProcessId to) const;

    /// Direct neighbours of `id` (nodes within its radio range).
    std::vector<sim::ProcessId> neighbours(sim::ProcessId id) const;

  private:
    struct Routes {
        // Indexed like entries_: next-hop index and hop count toward one
        // destination. Empty until the first query toward it.
        std::vector<std::size_t> next;
        std::vector<std::size_t> dist;
    };

    /// The entry index of `id`, or kUnknown.
    std::size_t index_of(sim::ProcessId id) const {
        return id < index_.size() ? index_[id] : kUnknown;
    }
    const Routes& routes_to(std::size_t dst_index) const;

    static constexpr std::size_t kUnknown = static_cast<std::size_t>(-1);

    std::vector<RouterEntry> entries_;
    std::vector<std::size_t> index_;  ///< index_[id]: entry index, or kUnknown
    std::vector<std::vector<std::size_t>> adjacency_;  ///< out-edges per index
    mutable std::vector<Routes> memo_;  ///< memo_[i]: routes toward entry i
};

}  // namespace tibfit::net
