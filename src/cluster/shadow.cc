#include "cluster/shadow.h"

#include <algorithm>
#include <cmath>

namespace tibfit::cluster {

namespace {
constexpr std::size_t kRecentCap = 32;
}

ShadowClusterHead::ShadowClusterHead(sim::Simulator& sim, sim::ProcessId id, net::Radio radio,
                                     core::EngineConfig engine_cfg, sim::ProcessId watched_ch,
                                     sim::ProcessId base_station)
    : sim::Process(sim, id),
      radio_(radio),
      engine_(engine_cfg),
      watched_ch_(watched_ch),
      base_station_(base_station) {}

void ShadowClusterHead::set_topology(std::vector<util::Vec2> node_positions) {
    node_positions_ = std::move(node_positions);
}

void ShadowClusterHead::handle_packet(const net::Packet& packet) {
    if (const auto* report = packet.as<net::ReportPayload>()) {
        // Only overheard traffic addressed to the watched CH matters.
        if (packet.dst == watched_ch_) handle_report(packet.src, *report);
    } else if (const auto* env = packet.as<net::RelayEnvelopePayload>()) {
        // Multi-hop deployments: the shadow overhears the *final hop* of a
        // relayed report into the CH. Retransmissions are deduplicated by
        // the envelope's end-to-end (source, seq) identity.
        if (packet.dst != watched_ch_ || env->final_dst != watched_ch_) return;
        const std::uint64_t key =
            (static_cast<std::uint64_t>(env->source) << 32) | env->seq;
        if (!relay_seen_.insert(key).second) return;
        handle_report(env->source, env->report);
    } else if (const auto* decision = packet.as<net::DecisionPayload>()) {
        if (packet.src == watched_ch_) check_announcement(*decision);
    } else if (const auto* transfer = packet.as<net::TiTransferPayload>()) {
        // The shadow adopts the same archive the CH adopted.
        if (packet.src == watched_ch_ || packet.dst == watched_ch_) {
            core::TrustManager table(engine_.config().trust);
            table.import_v(transfer->v_values);
            engine_.adopt_trust(std::move(table));
        }
    }
}

void ShadowClusterHead::handle_report(sim::ProcessId src, const net::ReportPayload& report) {
    const auto reporter = static_cast<core::NodeId>(src);
    if (reporter >= node_positions_.size()) return;

    if (binary_mode_) {
        if (!report.positive) return;
        if (!window_open_) {
            window_open_ = true;
            window_opened_at_ = sim().now();
            window_reporters_.clear();
            sim().schedule(engine_.config().t_out, [this] { decide_binary_window(); });
        }
        if (std::find(window_reporters_.begin(), window_reporters_.end(), reporter) ==
            window_reporters_.end()) {
            window_reporters_.push_back(reporter);
        }
        return;
    }

    if (!report.has_location) return;
    core::EventReport er;
    er.reporter = reporter;
    er.time = sim().now();
    er.location = core::resolve_location(node_positions_[reporter], report.offset);
    if (engine_.submit(er)) {
        sim().schedule(engine_.config().t_out, [this] { collect_location_windows(); });
    }
}

void ShadowClusterHead::decide_binary_window() {
    window_open_ = false;
    std::vector<core::NodeId> all(node_positions_.size());
    for (core::NodeId n = 0; n < all.size(); ++n) all[n] = n;
    const auto d = engine_.decide_binary(all, window_reporters_);
    window_reporters_.clear();
    recent_.push_back({sim().now(), d.event_declared, false, {}});
    if (recent_.size() > kRecentCap) recent_.pop_front();
}

void ShadowClusterHead::collect_location_windows() {
    for (const auto& d : engine_.collect(sim().now(), node_positions_)) {
        recent_.push_back({sim().now(), d.event_declared, true, d.location});
        if (recent_.size() > kRecentCap) recent_.pop_front();
    }
}

void ShadowClusterHead::check_announcement(const net::DecisionPayload& d) {
    // We may hear the same announcement more than once (the CH's broadcast
    // plus the overheard unicast to the base station): verify each seq once.
    for (std::uint64_t s : checked_seqs_) {
        if (s == d.decision_seq) return;
    }
    checked_seqs_.push_back(d.decision_seq);
    if (checked_seqs_.size() > kRecentCap) checked_seqs_.pop_front();

    // Find our own conclusion for the same decision: same window (binary,
    // within 2*T_out) or same place (location, within r_error).
    const double t_out = engine_.config().t_out;
    const double r_err = engine_.config().r_error;
    const OwnDecision* match = nullptr;
    for (auto it = recent_.rbegin(); it != recent_.rend(); ++it) {
        if (d.has_location != it->has_location) continue;
        if (d.has_location) {
            if (util::distance(d.location, it->location) <= r_err) {
                match = &*it;
                break;
            }
        } else if (std::abs(sim().now() - it->time) <= 2.0 * t_out) {
            match = &*it;
            break;
        }
    }
    if (!match) return;  // we missed the window (loss); cannot dispute
    if (match->event_declared == d.event_declared) {
        ++agreements_;
        return;
    }
    net::SchAlertPayload alert;
    alert.ch = watched_ch_;
    alert.decision_seq = d.decision_seq;
    alert.event_declared = match->event_declared;
    alert.has_location = match->has_location;
    alert.location = match->location;
    radio_.send(base_station_, alert);
    ++alerts_sent_;
}

}  // namespace tibfit::cluster
