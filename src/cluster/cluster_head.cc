#include "cluster/cluster_head.h"

#include <algorithm>
#include <utility>

#include "obs/names.h"
#include "obs/recorder.h"
#include "util/log.h"

namespace tibfit::cluster {

ClusterHead::ClusterHead(sim::Simulator& sim, sim::ProcessId id, net::Radio radio,
                         core::EngineConfig engine_cfg)
    : sim::Process(sim, id), radio_(radio), engine_(engine_cfg) {}

namespace {
/// Far outside any field: a non-member can never be an event neighbour.
constexpr util::Vec2 kNowhere{1e9, 1e9};
}  // namespace

void ClusterHead::set_topology(std::vector<util::Vec2> node_positions) {
    node_positions_ = std::move(node_positions);
    masked_dirty_ = true;
}

void ClusterHead::advertise(std::uint32_t round, core::NodeId self) {
    is_member_.assign(node_positions_.size(), false);
    if (self != core::kNoNode && self < is_member_.size()) is_member_[self] = true;
    masked_dirty_ = true;
    net::ChAdvertPayload advert;
    advert.round = round;
    advert.signal_strength = 1.0;
    radio_.broadcast(advert);
}

void ClusterHead::add_member(core::NodeId member) {
    if (is_member_.empty()) is_member_.assign(node_positions_.size(), false);
    if (member < is_member_.size() && !is_member_[member]) {
        is_member_[member] = true;
        masked_dirty_ = true;
    }
}

std::size_t ClusterHead::member_count() const {
    std::size_t n = 0;
    for (bool b : is_member_) n += b ? 1 : 0;
    return n;
}

const std::vector<util::Vec2>& ClusterHead::engine_positions() const {
    if (is_member_.empty()) return node_positions_;
    if (masked_dirty_) {
        masked_positions_ = node_positions_;
        for (std::size_t i = 0; i < masked_positions_.size(); ++i) {
            if (!is_member_[i]) masked_positions_[i] = kNowhere;
        }
        masked_dirty_ = false;
    }
    return masked_positions_;
}

void ClusterHead::set_recorder(obs::Recorder* recorder) {
    recorder_ = recorder;
    h_latency_ = h_margin_ = nullptr;
    if (recorder_) {
        auto& reg = recorder_->metrics();
        h_latency_ = &obs::decision_latency_histogram(reg);
        h_margin_ = &obs::cti_margin_histogram(reg);
    }
    // The engine keeps the attachment and re-applies it on every
    // adopt_trust, so CH rotations / failovers can't shed telemetry.
    engine_.set_recorder(recorder_);
}

void ClusterHead::begin_leadership(core::TrustManager table) {
    engine_.adopt_trust(std::move(table));
    active_ = true;
}

void ClusterHead::end_leadership() {
    if (base_station_ != sim::kNoProcess) {
        net::TiTransferPayload payload;
        payload.v_values = engine_.trust().export_v();
        radio_.send(base_station_, std::move(payload));
    }
    active_ = false;
    window_open_ = false;
    window_reporters_.clear();
}

void ClusterHead::enable_relay(const net::RoutingTable* routes, net::TransportParams params) {
    transport_.emplace(sim(), radio_, routes, params);
}

void ClusterHead::request_archive() {
    if (base_station_ == sim::kNoProcess) return;
    net::TiRequestPayload req;
    radio_.send(base_station_, req);
}

void ClusterHead::handle_packet(const net::Packet& packet) {
    if (packet.as<net::RelayEnvelopePayload>() || packet.as<net::RelayAckPayload>()) {
        if (!transport_) return;
        if (auto delivered = transport_->on_packet(packet)) {
            // Unwrap: process as if the originating sensor sent directly.
            if (active_) handle_report(delivered->source, delivered->report);
        }
        return;
    }
    if (const auto* report = packet.as<net::ReportPayload>()) {
        if (active_) handle_report(packet.src, *report);
    } else if (packet.as<net::AffiliatePayload>()) {
        if (active_) add_member(static_cast<core::NodeId>(packet.src));
    } else if (const auto* transfer = packet.as<net::TiTransferPayload>()) {
        // New leaders receive the archive from the base station.
        core::TrustManager table(engine_.config().trust);
        table.import_v(transfer->v_values);
        engine_.adopt_trust(std::move(table));
    }
}

void ClusterHead::handle_report(sim::ProcessId src, const net::ReportPayload& report) {
    const auto reporter = static_cast<core::NodeId>(src);
    if (reporter >= node_positions_.size()) return;  // not one of ours
    if (!is_member_.empty() && !is_member_[reporter]) return;  // other cluster's node

    ++reports_received_;
    if (recorder_ && recorder_->trace().enabled()) {
        recorder_->trace().append(
            sim().now(), obs::ReportReceived{reporter, static_cast<std::uint32_t>(id()),
                                             report.positive, report.has_location});
    }

    if (binary_mode_) {
        if (!report.positive) return;
        if (!window_open_) {
            window_open_ = true;
            window_opened_at_ = sim().now();
            window_reporters_.clear();
            sim().schedule(engine_.config().t_out, [this] { decide_binary_window(); });
            note_window_opened(reporter);
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
    const bool new_circle = engine_.submit(er);
    if (new_circle) {
        sim().schedule(engine_.config().t_out, [this] { collect_location_windows(); });
        note_window_opened(reporter);
    }
}

void ClusterHead::note_window_opened(core::NodeId first_reporter) {
    ++windows_opened_;
    if (recorder_ && recorder_->trace().enabled()) {
        recorder_->trace().append(
            sim().now(), obs::WindowOpened{static_cast<std::uint32_t>(id()), first_reporter});
    }
}

void ClusterHead::note_decision(const DecisionRecord& rec) {
    if (!recorder_) return;
    const double latency = rec.time - rec.window_opened;
    h_latency_->observe(latency);
    h_margin_->observe(rec.weight_reporters - rec.weight_silent);
    if (recorder_->trace().enabled()) {
        recorder_->trace().append(
            rec.time,
            obs::DecisionMade{static_cast<std::uint32_t>(id()), rec.seq, rec.event_declared,
                              rec.has_location, rec.location.x, rec.location.y,
                              rec.weight_reporters, rec.weight_silent,
                              static_cast<std::uint32_t>(rec.n_reporters), latency});
    }
}

void ClusterHead::decide_binary_window() {
    window_open_ = false;
    // Binary model (Section 3.1): every cluster member is an event neighbour.
    window_neighbours_.clear();
    for (core::NodeId n = 0; n < node_positions_.size(); ++n) {
        if (is_member_.empty() || is_member_[n]) window_neighbours_.push_back(n);
    }

    auto decision = engine_.decide_binary(window_neighbours_, window_reporters_);
    window_reporters_.clear();

    DecisionRecord rec;
    rec.ch = id();
    rec.seq = next_seq_++;
    rec.time = sim().now();
    rec.window_opened = window_opened_at_;
    rec.event_declared = corrupt_ ? !decision.event_declared : decision.event_declared;
    rec.weight_reporters = decision.weight_reporters;
    rec.weight_silent = decision.weight_silent;
    rec.n_reporters = decision.reporters.size();
    note_decision(rec);

    // Only a trust-running CH has judgements to announce; the stateless
    // baseline keeps no per-node verdicts (so smart nodes watching their
    // own TI have nothing to react to — they just keep lying).
    std::vector<core::NodeId> correct, faulty;
    if (engine_.config().policy == core::DecisionPolicy::TrustIndex) {
        correct = std::move(decision.event_declared ? decision.reporters : decision.silent);
        faulty = std::move(decision.event_declared ? decision.silent : decision.reporters);
    }
    if (corrupt_) {
        announce(rec, std::move(faulty), std::move(correct));  // a corrupt CH lies consistently
    } else {
        announce(rec, std::move(correct), std::move(faulty));
    }
    if (decision_cb_) decision_cb_(rec);
}

void ClusterHead::collect_location_windows() {
    auto decisions = engine_.collect(sim().now(), engine_positions());
    for (auto& d : decisions) {
        DecisionRecord rec;
        rec.ch = id();
        rec.seq = next_seq_++;
        rec.time = sim().now();
        rec.window_opened = sim().now() - engine_.config().t_out;
        rec.event_declared = corrupt_ ? !d.event_declared : d.event_declared;
        rec.has_location = true;
        rec.location = d.location;
        rec.weight_reporters = d.weight_reporters;
        rec.weight_silent = d.weight_silent;
        rec.n_reporters = d.reporters.size();
        note_decision(rec);

        std::vector<core::NodeId> correct, faulty;
        if (engine_.config().policy == core::DecisionPolicy::TrustIndex) {
            correct = std::move(d.event_declared ? d.reporters : d.silent);
            faulty = std::move(d.event_declared ? d.silent : d.reporters);
            faulty.insert(faulty.end(), d.thrown_out.begin(), d.thrown_out.end());
        }
        if (corrupt_) {
            announce(rec, std::move(faulty), std::move(correct));
        } else {
            announce(rec, std::move(correct), std::move(faulty));
        }
        if (decision_cb_) decision_cb_(rec);
    }
}

void ClusterHead::announce(const DecisionRecord& rec, std::vector<core::NodeId> judged_correct,
                           std::vector<core::NodeId> judged_faulty) {
    ++decisions_announced_;
    if (rec.event_declared) ++events_declared_;
    net::DecisionPayload payload;
    payload.decision_seq = rec.seq;
    payload.event_declared = rec.event_declared;
    payload.has_location = rec.has_location;
    payload.location = rec.location;
    payload.judged_correct = std::move(judged_correct);
    payload.judged_faulty = std::move(judged_faulty);
    // The judgement lists move into the broadcast body; only a base station,
    // whose unicast needs a body of its own, costs one copy of them.
    if (base_station_ == sim::kNoProcess) {
        radio_.broadcast(std::move(payload));
    } else {
        radio_.broadcast(payload);
        radio_.send(base_station_, std::move(payload));
    }
    util::log_debug() << "CH " << id() << " decision#" << rec.seq
                      << (rec.event_declared ? " EVENT" : " no-event") << " R="
                      << rec.weight_reporters << " NR=" << rec.weight_silent;
}

}  // namespace tibfit::cluster
