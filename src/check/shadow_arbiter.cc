#include "check/shadow_arbiter.h"

#include <stdexcept>

#include "util/log.h"

namespace tibfit::check {

namespace {

bool same_ids(const std::vector<core::NodeId>& a, const std::vector<core::NodeId>& b) {
    return a == b;
}

std::string ids(const std::vector<core::NodeId>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i) out += ",";
        out += std::to_string(v[i]);
    }
    return out + "]";
}

}  // namespace

ShadowArbiter::ShadowArbiter(const core::EngineConfig& cfg, bool abort_on_divergence)
    : cfg_(cfg), ref_(cfg.trust), abort_(abort_on_divergence) {}

void ShadowArbiter::diverge(const std::string& what) {
    ++divergences_;
    if (log_.size() < kMaxLoggedDivergences) log_.push_back(what);
    util::log_warn() << "ShadowArbiter: oracle divergence: " << what;
    if (abort_) throw std::logic_error("ShadowArbiter: oracle divergence: " + what);
}

void ShadowArbiter::compare_trust(const core::TrustManager& trust, const char* context) {
    const auto got = trust.export_v();
    const auto want = ref_.export_v();
    if (got.size() != want.size()) {
        diverge(std::string(context) + ": trust table tracks " + std::to_string(got.size()) +
                " nodes, reference " + std::to_string(want.size()));
        return;
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
        const auto [node, v] = got[i];
        if (node != want[i].first || v != want[i].second) {
            diverge(std::string(context) + ": trust v of node " + std::to_string(node) + " is " +
                    std::to_string(v) + ", reference node " + std::to_string(want[i].first) +
                    " has " + std::to_string(want[i].second));
            return;
        }
        if (trust.ti(node) != ref_.ti(node)) {
            diverge(std::string(context) + ": TI of node " + std::to_string(node) + " is " +
                    std::to_string(trust.ti(node)) + ", reference " +
                    std::to_string(ref_.ti(node)));
            return;
        }
        if (trust.is_isolated(node) != ref_.is_isolated(node)) {
            diverge(std::string(context) + ": isolation verdict of node " +
                    std::to_string(node) + " is " + (trust.is_isolated(node) ? "yes" : "no") +
                    ", reference says " + (ref_.is_isolated(node) ? "yes" : "no"));
            return;
        }
    }
}

void ShadowArbiter::on_binary_decision(std::span<const core::NodeId> event_neighbours,
                                       std::span<const core::NodeId> reporters,
                                       bool apply_trust_updates,
                                       const core::BinaryDecision& decision,
                                       const core::TrustManager& trust) {
    const auto want =
        ref_binary_decide(ref_, cfg_.policy, event_neighbours, reporters, apply_trust_updates);
    ++checked_;
    if (decision.event_declared != want.event_declared) {
        diverge("binary verdict " + std::string(decision.event_declared ? "event" : "no-event") +
                ", reference derives " + (want.event_declared ? "event" : "no-event"));
    }
    if (decision.weight_reporters != want.weight_reporters ||
        decision.weight_silent != want.weight_silent) {
        diverge("binary CTI split " + std::to_string(decision.weight_reporters) + "/" +
                std::to_string(decision.weight_silent) + ", reference " +
                std::to_string(want.weight_reporters) + "/" +
                std::to_string(want.weight_silent));
    }
    if (!same_ids(decision.reporters, want.reporters) ||
        !same_ids(decision.silent, want.silent)) {
        diverge("binary partition R=" + ids(decision.reporters) + " NR=" + ids(decision.silent) +
                ", reference R=" + ids(want.reporters) + " NR=" + ids(want.silent));
    }
    compare_trust(trust, "binary decision");
}

void ShadowArbiter::compare_decision(const core::LocationDecision& got,
                                     const core::LocationDecision& want, std::size_t index) {
    const std::string tag = "location decision " + std::to_string(index);
    if (got.event_declared != want.event_declared) {
        diverge(tag + ": verdict " + (got.event_declared ? "event" : "no-event") +
                ", reference derives " + (want.event_declared ? "event" : "no-event"));
    }
    if (got.location.x != want.location.x || got.location.y != want.location.y) {
        diverge(tag + ": location (" + std::to_string(got.location.x) + "," +
                std::to_string(got.location.y) + "), reference (" +
                std::to_string(want.location.x) + "," + std::to_string(want.location.y) + ")");
    }
    if (got.weight_reporters != want.weight_reporters ||
        got.weight_silent != want.weight_silent) {
        diverge(tag + ": CTI split " + std::to_string(got.weight_reporters) + "/" +
                std::to_string(got.weight_silent) + ", reference " +
                std::to_string(want.weight_reporters) + "/" +
                std::to_string(want.weight_silent));
    }
    if (!same_ids(got.reporters, want.reporters) || !same_ids(got.silent, want.silent) ||
        !same_ids(got.thrown_out, want.thrown_out)) {
        diverge(tag + ": constituency R=" + ids(got.reporters) + " NR=" + ids(got.silent) +
                " out=" + ids(got.thrown_out) + ", reference R=" + ids(want.reporters) +
                " NR=" + ids(want.silent) + " out=" + ids(want.thrown_out));
    }
}

void ShadowArbiter::on_location_decisions(std::span<const core::EventReport> reports,
                                          std::span<const util::Vec2> node_positions,
                                          bool apply_trust_updates,
                                          const std::vector<core::LocationDecision>& decisions,
                                          const core::TrustManager& trust) {
    const auto want = ref_location_decide(
        ref_, cfg_.policy, cfg_.sensing_radius, cfg_.r_error,
        core::EventClusterer::kDefaultMaxRounds, cfg_.trust_weighted_location, reports,
        node_positions, apply_trust_updates);
    checked_ += decisions.size();
    if (decisions.size() != want.size()) {
        diverge("report group yields " + std::to_string(decisions.size()) +
                " event clusters, reference derives " + std::to_string(want.size()));
    } else {
        for (std::size_t i = 0; i < decisions.size(); ++i) {
            compare_decision(decisions[i], want[i], i);
        }
    }
    compare_trust(trust, "location decision");
}

void ShadowArbiter::on_quarantines(std::span<const core::NodeId> nodes,
                                   const core::TrustManager& trust) {
    for (core::NodeId n : nodes) ref_.quarantine(n);
    compare_trust(trust, "quarantine");
}

void ShadowArbiter::on_trust_adopted(const core::TrustManager& trust) {
    // Checkpoint/restore must be lossless: re-materialising the adopted
    // table through the wire format reproduces it exactly.
    const auto roundtrip = core::TrustManager::restore(trust.checkpoint()).export_v();
    if (roundtrip != trust.export_v()) {
        diverge("trust adoption: checkpoint/restore round-trip altered the table (" +
                std::to_string(trust.export_v().size()) + " entries)");
    }
    ref_.reset_from(trust);
}

}  // namespace tibfit::check
