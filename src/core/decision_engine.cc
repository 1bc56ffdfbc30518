#include "core/decision_engine.h"

#include <iterator>
#include <stdexcept>

#include "core/check_hooks.h"

namespace tibfit::core {

DecisionEngine::DecisionEngine(EngineConfig cfg)
    : cfg_(cfg),
      trust_(cfg.trust),
      binary_(trust_, cfg.policy),
      location_(trust_, cfg.policy, cfg.sensing_radius, cfg.r_error),
      windows_(cfg.r_error, cfg.t_out),
      collusion_(cfg.collusion) {
    location_.set_trust_weighted_location(cfg.trust_weighted_location);
}

void DecisionEngine::adopt_trust(TrustManager table) {
    trust_ = std::move(table);
    // The adopted table typically arrives detached (restored checkpoint,
    // archive copy): keep telemetry flowing without every caller having to
    // remember to re-attach.
    trust_.set_recorder(recorder_);
    if (checker_) checker_->on_trust_adopted(trust_);
}

void DecisionEngine::set_recorder(obs::Recorder* recorder) {
    recorder_ = recorder;
    trust_.set_recorder(recorder);
    location_.set_recorder(recorder);
}

void DecisionEngine::set_checker(DecisionChecker* checker) {
    checker_ = checker;
    if (checker_) checker_->on_trust_adopted(trust_);
}

void DecisionEngine::run_collusion_defense(std::span<const EventReport> reports) {
    if (!cfg_.collusion_defense || cfg_.policy != DecisionPolicy::TrustIndex) return;
    const auto finding = collusion_.inspect(reports);
    CollusionDetector::penalize(finding, trust_);
    if (checker_ && !finding.convicted.empty()) {
        checker_->on_quarantines(finding.convicted, trust_);
    }
}

BinaryDecision DecisionEngine::decide_binary(std::span<const NodeId> event_neighbours,
                                             std::span<const NodeId> reporters,
                                             bool apply_trust_updates) {
    BinaryDecision d = binary_.decide(event_neighbours, reporters, apply_trust_updates);
    if (checker_) {
        checker_->on_binary_decision(event_neighbours, reporters, apply_trust_updates, d,
                                     trust_);
    }
    return d;
}

bool DecisionEngine::submit(const EventReport& report) {
    if (!report.has_location()) {
        throw std::invalid_argument("DecisionEngine::submit: report has no location");
    }
    pending_.push_back(report);
    return windows_.add_report(report.time, pending_.size() - 1, *report.location);
}

std::vector<LocationDecision> DecisionEngine::collect(
    double now, std::span<const util::Vec2> node_positions, bool apply_trust_updates) {
    std::vector<LocationDecision> out;
    for (const auto& group : windows_.collect_ready(now)) {
        group_reports_.clear();
        for (std::size_t idx : group) group_reports_.push_back(pending_[idx]);
        if (apply_trust_updates) run_collusion_defense(group_reports_);
        auto decisions = location_.decide(group_reports_, node_positions, apply_trust_updates);
        if (checker_) {
            checker_->on_location_decisions(group_reports_, node_positions, apply_trust_updates,
                                            decisions, trust_);
        }
        if (out.empty()) {
            out = std::move(decisions);
        } else {
            out.insert(out.end(), std::make_move_iterator(decisions.begin()),
                       std::make_move_iterator(decisions.end()));
        }
    }
    // All windows drained: the buffer indices are no longer referenced.
    if (windows_.idle()) pending_.clear();
    return out;
}

std::vector<LocationDecision> DecisionEngine::decide_location(
    std::span<const EventReport> reports, std::span<const util::Vec2> node_positions,
    bool apply_trust_updates) {
    if (apply_trust_updates) run_collusion_defense(reports);
    auto decisions = location_.decide(reports, node_positions, apply_trust_updates);
    if (checker_) {
        checker_->on_location_decisions(reports, node_positions, apply_trust_updates,
                                        decisions, trust_);
    }
    return decisions;
}

}  // namespace tibfit::core
