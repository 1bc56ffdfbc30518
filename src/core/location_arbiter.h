// Section 3.2 — event arbitration with location determination.
//
// The reports of a decision window are first grouped into event clusters
// (EventClusterer); each cluster's centre of gravity is a candidate event
// location. For each candidate the CH computes the event neighbours (nodes
// within the sensing radius of the cg), partitions them into reporters vs.
// silent, and runs the Section 3.1 CTI vote. Reports whose location is too
// far from any plausible sensing position of their reporter are thrown out
// and judged faulty.
#pragma once

#include <span>
#include <vector>

#include "core/binary_arbiter.h"
#include "core/event_clusterer.h"
#include "core/node_marks.h"
#include "core/report.h"
#include "core/trust.h"

namespace tibfit::core {

/// Outcome of one candidate-event (per event cluster) decision.
struct LocationDecision {
    bool event_declared = false;
    util::Vec2 location;              ///< the cluster's centre of gravity
    double weight_reporters = 0.0;    ///< CTI of R (|R| under the baseline)
    double weight_silent = 0.0;       ///< CTI of NR (|NR|)
    std::vector<NodeId> reporters;    ///< nodes whose report joined this cluster
    std::vector<NodeId> silent;       ///< event neighbours that did not
    std::vector<NodeId> thrown_out;   ///< reporters too far from the cg to have sensed it
};

/// Runs the location-model decision pipeline for one report group.
class LocationArbiter {
  public:
    /// `sensing_radius` is the paper's r_s (20 units); `r_error` the
    /// localization error bound (5 units). The trust table must outlive the
    /// arbiter.
    LocationArbiter(TrustManager& trust, DecisionPolicy policy, double sensing_radius,
                    double r_error);

    /// Extension: re-estimate each declared event's location as the
    /// trust-weighted centroid of its member reports, instead of the
    /// plain centroid the clusterer produced. Distrusted nodes then stop
    /// dragging the estimate (the "cg drift" that costs accuracy against
    /// level-2 collusion). Paper behaviour = off.
    void set_trust_weighted_location(bool enabled) { weighted_location_ = enabled; }
    bool trust_weighted_location() const { return weighted_location_; }

    DecisionPolicy policy() const { return policy_; }
    const EventClusterer& clusterer() const { return clusterer_; }

    /// Forwards to the embedded clusterer (round-cap telemetry). nullptr
    /// detaches.
    void set_recorder(obs::Recorder* recorder) { clusterer_.set_recorder(recorder); }

    /// Decides every candidate event among `reports`.
    ///
    /// `node_positions` maps NodeId -> field position for every node of the
    /// cluster (index == id); it defines the universe of potential event
    /// neighbours. Duplicate reports from one node keep only the earliest.
    /// With `apply_trust_updates` (TrustIndex policy only): winners are
    /// judged correct, losers and thrown-out reporters faulty.
    std::vector<LocationDecision> decide(std::span<const EventReport> reports,
                                         std::span<const util::Vec2> node_positions,
                                         bool apply_trust_updates = true);

  private:
    TrustManager* trust_;
    DecisionPolicy policy_;
    double sensing_radius_;
    EventClusterer clusterer_;
    bool weighted_location_ = false;
    // decide()'s scratch, reused from window to window.
    NodeMarks marks_;  ///< deduplicated, then cluster reporters
    std::vector<std::size_t> kept_;     ///< indices of the deduplicated reports
    std::vector<util::Vec2> locations_; ///< their locations, the clusterer's input
    std::vector<NodeId> reporters_;     ///< one cluster's lists, before they are sized
    std::vector<NodeId> silent_;
    std::vector<NodeId> thrown_out_;
};

}  // namespace tibfit::core
