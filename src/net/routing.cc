#include "net/routing.h"

#include <deque>
#include <limits>
#include <stdexcept>
#include <string>

namespace tibfit::net {

namespace {
constexpr std::size_t kUnreachable = std::numeric_limits<std::size_t>::max();
}

RoutingTable::RoutingTable(std::vector<RouterEntry> entries) {
    rebuild(std::move(entries));
}

void RoutingTable::rebuild(std::vector<RouterEntry> entries) {
    std::vector<std::size_t> index;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const sim::ProcessId id = entries[i].id;
        if (id >= sim::kMaxProcessId) {
            throw std::invalid_argument("RoutingTable: id " + std::to_string(id) +
                                        " is too large");
        }
        if (id >= index.size()) index.resize(std::size_t{id} + 1, kUnknown);
        if (index[id] != kUnknown) {
            throw std::invalid_argument("RoutingTable: id " + std::to_string(id) +
                                        " appears twice");
        }
        index[id] = i;
    }
    entries_ = std::move(entries);
    index_ = std::move(index);
    memo_.assign(entries_.size(), {});
    adjacency_.assign(entries_.size(), {});
    for (std::size_t u = 0; u < entries_.size(); ++u) {
        const double r2 = entries_[u].range * entries_[u].range;
        for (std::size_t v = 0; v < entries_.size(); ++v) {
            if (u == v) continue;
            if (util::distance2(entries_[u].position, entries_[v].position) <= r2) {
                adjacency_[u].push_back(v);
            }
        }
    }
}

const RoutingTable::Routes& RoutingTable::routes_to(std::size_t dst_index) const {
    Routes& r = memo_[dst_index];
    if (!r.next.empty()) return r;

    // BFS over *reverse* edges from the destination: dist[u] is u's hop
    // count to dst, next[u] the first hop on a shortest path. Reverse
    // edges matter when ranges are asymmetric (u hears v but not vice
    // versa).
    r.next.assign(entries_.size(), kUnreachable);
    r.dist.assign(entries_.size(), kUnreachable);
    r.dist[dst_index] = 0;
    r.next[dst_index] = dst_index;

    std::deque<std::size_t> frontier{dst_index};
    while (!frontier.empty()) {
        const std::size_t v = frontier.front();
        frontier.pop_front();
        // Predecessors: every u with an edge u -> v.
        for (std::size_t u = 0; u < entries_.size(); ++u) {
            if (r.dist[u] != kUnreachable) continue;
            bool edge = false;
            for (std::size_t w : adjacency_[u]) {
                if (w == v) {
                    edge = true;
                    break;
                }
            }
            if (!edge) continue;
            r.dist[u] = r.dist[v] + 1;
            r.next[u] = v;
            frontier.push_back(u);
        }
    }
    return r;
}

sim::ProcessId RoutingTable::next_hop(sim::ProcessId from, sim::ProcessId to) const {
    const std::size_t fi = index_of(from);
    const std::size_t ti = index_of(to);
    if (fi == kUnknown || ti == kUnknown) return sim::kNoProcess;
    const std::size_t nh = routes_to(ti).next[fi];
    return nh == kUnreachable ? sim::kNoProcess : entries_[nh].id;
}

std::size_t RoutingTable::hops(sim::ProcessId from, sim::ProcessId to) const {
    const std::size_t fi = index_of(from);
    const std::size_t ti = index_of(to);
    if (fi == kUnknown || ti == kUnknown) return kUnreachable;
    return routes_to(ti).dist[fi];
}

bool RoutingTable::reachable(sim::ProcessId from, sim::ProcessId to) const {
    return hops(from, to) != kUnreachable;
}

std::vector<sim::ProcessId> RoutingTable::neighbours(sim::ProcessId id) const {
    const std::size_t i = index_of(id);
    std::vector<sim::ProcessId> out;
    if (i == kUnknown) return out;
    for (std::size_t v : adjacency_[i]) out.push_back(entries_[v].id);
    return out;
}

}  // namespace tibfit::net
