#include "cluster/base_station.h"

namespace tibfit::cluster {

BaseStation::BaseStation(sim::Simulator& sim, sim::ProcessId id, net::Radio radio,
                         core::TrustParams trust_params, double alert_wait)
    : sim::Process(sim, id),
      radio_(radio),
      archive_(trust_params),
      ch_trust_(trust_params),
      alert_wait_(alert_wait) {}

double BaseStation::ch_trust(sim::ProcessId ch) const {
    return ch_trust_.ti(static_cast<core::NodeId>(ch));
}

void BaseStation::handle_packet(const net::Packet& packet) {
    if (const auto* transfer = packet.as<net::TiTransferPayload>()) {
        // End-of-leadership archive deposit. Merge: multi-cluster
        // deployments deposit per-cluster tables that must not clobber
        // each other.
        archive_.merge_v(transfer->v_values);
    } else if (packet.as<net::TiRequestPayload>()) {
        // New leader requesting the archive.
        net::TiTransferPayload reply;
        reply.v_values = archive_.export_v();
        radio_.send(packet.src, std::move(reply));
    } else if (const auto* decision = packet.as<net::DecisionPayload>()) {
        // The CH's copy opens the vote, or completes one an early alert
        // opened (independent channel delays can reorder them). The
        // broadcast copy also reaches us if in range: count one copy.
        const std::uint64_t key = vote_key(packet.src, decision->decision_seq);
        PendingVote& vote = pending_.try_emplace(key, decision->decision_seq, packet.src)
                                .first->second;
        if (vote.announced) return;
        vote.announced = true;
        vote.event_declared = decision->event_declared;
        vote.has_location = decision->has_location;
        vote.location = decision->location;
        vote.vote_at = sim().now() + alert_wait_;
        sim().schedule(alert_wait_, [this, key] { finalize(key); });
    } else if (const auto* alert = packet.as<net::SchAlertPayload>()) {
        // A shadow disputes the announcement of the CH it watches.
        const std::uint64_t key = vote_key(alert->ch, alert->decision_seq);
        const auto [it, opened] = pending_.try_emplace(key, alert->decision_seq, alert->ch);
        PendingVote& vote = it->second;
        ++vote.disagreements;
        vote.shadow_conclusion = alert->event_declared;
        vote.shadow_location = alert->location;
        if (opened) sim().schedule(alert_wait_, [this, key] { finalize(key); });
    }
}

void BaseStation::finalize(std::uint64_t key) {
    auto it = pending_.find(key);
    if (it == pending_.end()) return;
    if (!it->second.announced) {
        // An early alert the CH's copy did not follow within alert_wait:
        // nothing to decide.
        pending_.erase(it);
        return;
    }
    // An early alert's timer: the copy's own timer closes the vote.
    if (sim().now() < it->second.vote_at) return;
    PendingVote vote = std::move(it->second);
    pending_.erase(it);

    FinalDecision f;
    f.ch = vote.ch;
    f.seq = vote.seq;
    f.time = sim().now();
    f.has_location = vote.has_location;

    // Simple vote over three conclusions: the CH plus two shadows. A
    // silent shadow agrees. Two dissents outvote the CH.
    const bool outvoted = vote.disagreements >= 2;
    if (outvoted) {
        f.event_declared = vote.shadow_conclusion;
        f.location = vote.shadow_location;
        f.overridden = true;
        ++overrides_;
        ch_trust_.judge_faulty(static_cast<core::NodeId>(vote.ch));
        if (reelect_cb_) reelect_cb_(vote.ch);
    } else {
        f.event_declared = vote.event_declared;
        f.location = vote.location;
        ch_trust_.judge_correct(static_cast<core::NodeId>(vote.ch));
    }
    finals_.push_back(f);
}

}  // namespace tibfit::cluster
