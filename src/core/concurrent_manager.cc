#include "core/concurrent_manager.h"

#include <stdexcept>
#include <utility>

namespace tibfit::core {

ConcurrentEventManager::ConcurrentEventManager(double r_error, double t_out)
    : r_error_(r_error), t_out_(t_out) {
    if (!(r_error > 0.0)) throw std::invalid_argument("ConcurrentEventManager: r_error <= 0");
    if (!(t_out > 0.0)) throw std::invalid_argument("ConcurrentEventManager: t_out <= 0");
}

bool ConcurrentEventManager::add_report(double now, std::size_t report_index,
                                        const util::Vec2& loc) {
    // Join the first circle that contains the location.
    for (auto& c : circles_) {
        if (c.circle.contains(loc)) {
            c.members.push_back(report_index);
            return false;
        }
    }
    const double deadline = now + t_out_;
    // A released circle's member list, if there is one, keeps its capacity.
    std::vector<std::size_t> members;
    if (!spare_.empty()) {
        members = std::move(spare_.back());
        spare_.pop_back();
    }
    members.push_back(report_index);
    circles_.push_back(CircleState{util::Circle{loc, r_error_}, deadline, std::move(members)});
    if (!next_deadline_ || deadline < *next_deadline_) next_deadline_ = deadline;
    return true;
}

std::span<const ReportGroup> ConcurrentEventManager::collect_ready(double now) {
    const std::size_t n = circles_.size();
    if (n == 0) return {};

    // Union-find over overlapping circles.
    parent_.resize(n);
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
    auto find = [this](std::size_t x) {
        while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
        return x;
    };
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            if (util::circles_overlap(circles_[i].circle, circles_[j].circle)) {
                parent_[find(j)] = find(i);
            }
        }
    }
    // From here on parent_[i] is circle i's root.
    for (std::size_t i = 0; i < n; ++i) parent_[i] = find(i);

    // A component is ready when every member circle's deadline has passed.
    // Ready components take group slots in root order.
    constexpr std::size_t kBlocked = static_cast<std::size_t>(-1);
    slot_.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        if (circles_[i].deadline > now) slot_[parent_[i]] = kBlocked;
    }
    std::size_t released = 0;
    for (std::size_t r = 0; r < n; ++r) {
        if (parent_[r] == r && slot_[r] != kBlocked) slot_[r] = released++;
    }
    if (groups_.size() < released) groups_.resize(released);
    for (std::size_t g = 0; g < released; ++g) groups_[g].clear();

    // Gather ready components into groups (arrival order = circle creation
    // order, then within-circle arrival order), compact away the released
    // circles, recycling their member lists, and re-establish the cached
    // minimum deadline over whatever stays open.
    next_deadline_.reset();
    std::size_t open = 0;
    for (std::size_t i = 0; i < n; ++i) {
        CircleState& c = circles_[i];
        const std::size_t slot = slot_[parent_[i]];
        if (slot != kBlocked) {
            groups_[slot].insert(groups_[slot].end(), c.members.begin(), c.members.end());
            c.members.clear();
            spare_.push_back(std::move(c.members));
            continue;
        }
        if (!next_deadline_ || c.deadline < *next_deadline_) next_deadline_ = c.deadline;
        if (open != i) circles_[open] = std::move(c);
        ++open;
    }
    circles_.erase(circles_.begin() + static_cast<std::ptrdiff_t>(open), circles_.end());
    return {groups_.data(), released};
}

}  // namespace tibfit::core
