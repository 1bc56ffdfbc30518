#include "core/event_clusterer.h"

#include <algorithm>
#include <stdexcept>

#include "obs/names.h"
#include "obs/recorder.h"
#include "util/geometry.h"
#include "util/invariant.h"
#include "util/log.h"

namespace tibfit::core {

namespace {

/// Nearest-centre assignment: per-point centre index into `assign`.
void assign_nearest(std::span<const util::Vec2> points, const std::vector<util::Vec2>& centres,
                    std::vector<std::size_t>& assign) {
    assign.resize(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        assign[i] = util::nearest_index(centres, points[i]);
    }
}

}  // namespace

/// Centres of gravity per cluster into (`centres`, `sizes`); drops empty
/// clusters and compacts the assignment accordingly.
void EventClusterer::recompute_cgs(std::span<const util::Vec2> points,
                                   std::vector<std::size_t>& assign, std::size_t ncentres,
                                   std::vector<util::Vec2>& centres,
                                   std::vector<std::size_t>& sizes) const {
    Work& w = work_;
    w.sums.assign(ncentres, util::Vec2{});
    w.counts.assign(ncentres, 0);
    for (std::size_t i = 0; i < points.size(); ++i) {
        w.sums[assign[i]] += points[i];
        ++w.counts[assign[i]];
    }
    // Compact away empty clusters, remapping assignments.
    centres.clear();
    sizes.clear();
    w.remap.assign(ncentres, 0);
    for (std::size_t c = 0; c < ncentres; ++c) {
        if (w.counts[c] == 0) continue;
        w.remap[c] = centres.size();
        centres.push_back(w.sums[c] / static_cast<double>(w.counts[c]));
        sizes.push_back(w.counts[c]);
    }
    for (auto& a : assign) a = w.remap[a];
}

/// Step 5: merges all groups of centres lying within r_error of each other
/// (transitively) into their size-weighted average. Returns true if any
/// merge happened.
bool EventClusterer::merge_close_centres(std::vector<util::Vec2>& centres,
                                         std::vector<std::size_t>& sizes) const {
    const std::size_t n = centres.size();
    if (n < 2) return false;
    Work& w = work_;

    // Union-find over centres closer than r_error.
    std::vector<std::size_t>& parent = w.parent;
    parent.resize(n);
    for (std::size_t i = 0; i < n; ++i) parent[i] = i;
    auto find = [&](std::size_t x) {
        while (parent[x] != x) x = parent[x] = parent[parent[x]];
        return x;
    };

    bool any = false;
    const double r2 = r_error_ * r_error_;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            if (util::distance2(centres[i], centres[j]) <= r2) {
                const std::size_t a = find(i), b = find(j);
                if (a != b) {
                    parent[b] = a;
                    any = true;
                }
            }
        }
    }
    if (!any) return false;

    w.merged.clear();
    w.merged_sizes.clear();
    w.root_to_new.assign(n, static_cast<std::size_t>(-1));
    w.sums.assign(n, util::Vec2{});
    w.counts.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t r = find(i);
        w.sums[r] += centres[i] * static_cast<double>(sizes[i]);
        w.counts[r] += sizes[i];
    }
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t r = find(i);
        if (w.root_to_new[r] != static_cast<std::size_t>(-1)) continue;
        w.root_to_new[r] = w.merged.size();
        w.merged.push_back(w.sums[r] / static_cast<double>(w.counts[r]));
        w.merged_sizes.push_back(w.counts[r]);
    }
    centres.swap(w.merged);
    sizes.swap(w.merged_sizes);
    return true;
}

EventClusterer::EventClusterer(double r_error, std::size_t max_rounds)
    : r_error_(r_error), max_rounds_(max_rounds) {
    if (!(r_error > 0.0)) throw std::invalid_argument("EventClusterer: r_error must be > 0");
    if (max_rounds == 0) throw std::invalid_argument("EventClusterer: max_rounds must be > 0");
}

const std::vector<EventCluster>& EventClusterer::cluster(
    std::span<const util::Vec2> points) const {
    std::vector<EventCluster>& out = clusters_;
    if (points.empty()) {
        out.clear();
        return out;
    }
    if (points.size() == 1) {
        out.resize(1);
        out[0].cg = points[0];
        out[0].members.assign(1, 0);
        return out;
    }
    Work& w = work_;

    // Steps 1-2: seed with the farthest pair...
    std::vector<util::Vec2>& centres = w.centres;
    centres.clear();
    const auto [i0, i1] = util::farthest_pair(points);
    if (util::distance(points[i0], points[i1]) <= r_error_) {
        // ... unless everything already fits one r_error disc: one cluster.
        centres.push_back(points[i0]);
    } else {
        centres.push_back(points[i0]);
        centres.push_back(points[i1]);
    }

    // Step 3: grow centres until every report is within r_error of one.
    const double r2 = r_error_ * r_error_;
    bool grew = true;
    while (grew) {
        grew = false;
        for (std::size_t i = 0; i < points.size(); ++i) {
            bool covered = false;
            for (const auto& c : centres) {
                if (util::distance2(points[i], c) <= r2) {
                    covered = true;
                    break;
                }
            }
            if (!covered) {
                centres.push_back(points[i]);
                grew = true;
            }
        }
    }

    // Step 4: nearest-centre assignment + cg update.
    std::vector<std::size_t>& assign = w.assign;
    std::vector<util::Vec2>& cgs = w.cgs;
    std::vector<std::size_t>& sizes = w.sizes;
    assign_nearest(points, centres, assign);
    recompute_cgs(points, assign, centres.size(), cgs, sizes);

    // Step 5: merge-close-centres / reassign rounds until the constituency
    // stops changing (or the round cap is hit).
    bool converged = false;
    for (std::size_t round = 0; round < max_rounds_; ++round) {
        const bool merged = merge_close_centres(cgs, sizes);
        assign_nearest(points, cgs, w.new_assign);
        recompute_cgs(points, w.new_assign, cgs.size(), w.new_cgs, w.new_sizes);
        const bool stable = !merged && w.new_assign == assign;
        assign.swap(w.new_assign);
        cgs.swap(w.new_cgs);
        sizes.swap(w.new_sizes);
        if (stable) {
            converged = true;
            break;
        }
    }
    if (!converged) {
        util::log_warn() << "EventClusterer: refinement truncated at max_rounds=" << max_rounds_
                         << " with " << points.size()
                         << " points; constituency may not be a fixpoint";
        if (recorder_) {
            recorder_->metrics().counter(obs::metric::kClustererRoundCapHits).inc();
        }
    }

    // Postconditions at a fixpoint: clusters partition the input by
    // nearest centre (each member's own cg bounds its Voronoi disc) and
    // no two surviving centres lie within r_error (step 5 would have
    // merged them). Both only hold when the loop actually converged.
    if (util::invariant_checks_on() && converged) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            TIBFIT_CHECK(assign[i] == util::nearest_index(cgs, points[i]),
                         "point " + std::to_string(i) + " not assigned to its nearest centre");
        }
        for (std::size_t a = 0; a < cgs.size(); ++a) {
            for (std::size_t b = a + 1; b < cgs.size(); ++b) {
                TIBFIT_CHECK(util::distance2(cgs[a], cgs[b]) > r2,
                             "surviving centres " + std::to_string(a) + " and " +
                                 std::to_string(b) + " within r_error");
            }
        }
    }

    out.resize(cgs.size());
    for (std::size_t c = 0; c < cgs.size(); ++c) {
        out[c].cg = cgs[c];
        out[c].members.clear();
    }
    for (std::size_t i = 0; i < points.size(); ++i) out[assign[i]].members.push_back(i);
    return out;
}

}  // namespace tibfit::core
