#include "core/location_arbiter.h"

#include <algorithm>
#include <stdexcept>

namespace tibfit::core {

LocationArbiter::LocationArbiter(TrustManager& trust, DecisionPolicy policy,
                                 double sensing_radius, double r_error)
    : trust_(&trust),
      policy_(policy),
      sensing_radius_(sensing_radius),
      clusterer_(r_error) {
    if (!(sensing_radius > 0.0)) {
        throw std::invalid_argument("LocationArbiter: sensing_radius must be > 0");
    }
}

std::vector<LocationDecision> LocationArbiter::decide(
    std::span<const EventReport> reports, std::span<const util::Vec2> node_positions,
    bool apply_trust_updates) {
    const bool stateful = policy_ == DecisionPolicy::TrustIndex;

    // Deduplicate: one (earliest) located report per node. Nodes the trust
    // table has diagnosed and isolated are "removed from the network"
    // (Section 3.1): their reports do not even reach the clusterer, so
    // they can no longer drag a cluster's centre of gravity.
    kept_.clear();
    marks_.reset(node_positions.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
        if (!reports[i].has_location()) continue;
        if (reports[i].reporter >= node_positions.size()) continue;
        if (stateful && trust_->is_isolated(reports[i].reporter)) continue;
        if (marks_.insert(reports[i].reporter)) kept_.push_back(i);
    }

    locations_.clear();
    for (std::size_t i : kept_) locations_.push_back(*reports[i].location);

    const auto& clusters = clusterer_.cluster(locations_);

    // A reporter within r_s of the cg is an expected sensor of the event; we
    // extend the plausibility cutoff by r_error so a correct node right at
    // the sensing edge is not thrown out purely because the cg estimate
    // moved by the allowed localization error.
    const double plaus = sensing_radius_ + clusterer_.r_error();
    const double rs2 = sensing_radius_ * sensing_radius_;
    const double plaus2 = plaus * plaus;

    std::vector<LocationDecision> out;
    out.reserve(clusters.size());

    for (const auto& cl : clusters) {
        LocationDecision d;
        d.location = cl.cg;

        // Optional refinement: weight each member report by its reporter's
        // trust so distrusted nodes cannot drag the location estimate.
        if (weighted_location_ && stateful) {
            util::Vec2 sum;
            double total = 0.0;
            for (std::size_t m : cl.members) {
                const auto& r = reports[kept_[m]];
                const double w = trust_->ti(r.reporter);
                sum += *r.location * w;
                total += w;
            }
            if (total > 1e-9) d.location = sum / total;
        }

        marks_.reset(node_positions.size());  // now: this cluster's reporters
        for (std::size_t m : cl.members) marks_.insert(reports[kept_[m]].reporter);

        // Partition: reporters into this cluster (plausible ones), silent
        // event neighbours, and thrown-out reporters. The lists leave with
        // the decision, so each is gathered in reused storage first and
        // then allocated once, at its size.
        for (auto* list : {&reporters_, &silent_, &thrown_out_}) list->clear();
        for (NodeId n = 0; n < node_positions.size(); ++n) {
            if (stateful && trust_->is_isolated(n)) continue;
            const double d2 = util::distance2(node_positions[n], d.location);
            const bool is_reporter = marks_.contains(n);
            if (is_reporter) {
                if (d2 <= plaus2) {
                    reporters_.push_back(n);
                    d.weight_reporters += stateful ? trust_->ti(n) : 1.0;
                } else {
                    thrown_out_.push_back(n);
                }
            } else if (d2 <= rs2) {
                silent_.push_back(n);
                d.weight_silent += stateful ? trust_->ti(n) : 1.0;
            }
        }
        d.reporters.assign(reporters_.begin(), reporters_.end());
        d.silent.assign(silent_.begin(), silent_.end());
        d.thrown_out.assign(thrown_out_.begin(), thrown_out_.end());

        d.event_declared = !d.reporters.empty() && d.weight_reporters >= d.weight_silent;

        if (stateful && apply_trust_updates) {
            const auto& winners = d.event_declared ? d.reporters : d.silent;
            const auto& losers = d.event_declared ? d.silent : d.reporters;
            for (NodeId n : winners) trust_->judge_correct(n);
            for (NodeId n : losers) trust_->judge_faulty(n);
            // Claiming an event from an implausible position is a false
            // alarm regardless of the vote's outcome.
            for (NodeId n : d.thrown_out) trust_->judge_faulty(n);
        }
        out.push_back(std::move(d));
    }
    return out;
}

}  // namespace tibfit::core
