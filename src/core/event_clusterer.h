// Section 3.2 — grouping event reports into event clusters.
//
// The CH receives k location reports inside a T_out window and must decide
// how many distinct events they describe and where. The paper gives a
// K-means-style heuristic:
//
//   (1) compute all pairwise distances;
//   (2) seed two clusters at the farthest pair of reports;
//   (3) any report farther than r_error from every existing centre becomes
//       a new centre, until no report can form a separate cluster;
//   (4) assign the remaining reports to the nearest centre and update each
//       cluster's centre of gravity (cg);
//   (5) if two or more centres lie within r_error of each other, replace
//       them with their weighted average and repeat; rounds run until no
//       change in cluster constituency.
//
// The final cgs are the candidate event locations. Reports more than
// r_error from every surviving cg were effectively "thrown out".
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/vec2.h"

namespace tibfit::obs {
class Recorder;
}  // namespace tibfit::obs

namespace tibfit::core {

/// One event cluster: its centre of gravity and the indices (into the input
/// report span) of its member reports.
struct EventCluster {
    util::Vec2 cg;
    std::vector<std::size_t> members;  ///< ascending input indices
};

/// Deterministic implementation of the paper's clustering heuristic.
class EventClusterer {
  public:
    /// Default step-5 round bound — far beyond what any realistic input
    /// needs (the differential oracle mirrors this value).
    static constexpr std::size_t kDefaultMaxRounds = 64;

    /// `r_error` is the localization error bound (5 units in Experiment 2).
    /// `max_rounds` bounds the step-5 refinement loop; the heuristic is not
    /// guaranteed to reach a fixpoint in theory, so we stop after this many
    /// rounds.
    explicit EventClusterer(double r_error, std::size_t max_rounds = kDefaultMaxRounds);

    double r_error() const { return r_error_; }
    std::size_t max_rounds() const { return max_rounds_; }

    /// Hitting the round cap used to truncate silently; with a recorder
    /// attached each truncation now increments
    /// core.clusterer.round_cap_hits (lazily registered, mirroring the
    /// exp.sweep.truncated_runs convention) and logs a warning either way.
    /// nullptr detaches.
    void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

    /// Groups `points` into event clusters. Empty input yields no clusters;
    /// a single point yields one singleton cluster. Every input point is a
    /// member of exactly one output cluster. The clusters live in the
    /// clusterer's reused storage: the reference is valid until the next
    /// call.
    const std::vector<EventCluster>& cluster(std::span<const util::Vec2> points) const;

  private:
    /// cluster()'s working storage, reused from call to call so that a
    /// window allocates nothing it throws away.
    struct Work {
        std::vector<util::Vec2> centres;
        std::vector<std::size_t> assign, new_assign;
        std::vector<util::Vec2> cgs, new_cgs;
        std::vector<std::size_t> sizes, new_sizes;
        std::vector<util::Vec2> sums;        ///< per-cluster sums (recompute, merge)
        std::vector<std::size_t> counts;     ///< per-cluster counts (recompute, merge)
        std::vector<std::size_t> remap;      ///< old -> compacted cluster index
        std::vector<std::size_t> parent;     ///< union-find over centres
        std::vector<std::size_t> root_to_new;
        std::vector<util::Vec2> merged;
        std::vector<std::size_t> merged_sizes;
    };

    void recompute_cgs(std::span<const util::Vec2> points, std::vector<std::size_t>& assign,
                       std::size_t ncentres, std::vector<util::Vec2>& centres,
                       std::vector<std::size_t>& sizes) const;
    bool merge_close_centres(std::vector<util::Vec2>& centres,
                             std::vector<std::size_t>& sizes) const;

    double r_error_;
    std::size_t max_rounds_;
    obs::Recorder* recorder_ = nullptr;
    mutable Work work_;
    mutable std::vector<EventCluster> clusters_;  ///< cluster()'s result
};

}  // namespace tibfit::core
