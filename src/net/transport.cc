#include "net/transport.h"

#include <utility>

namespace tibfit::net {

ReliableTransport::ReliableTransport(sim::Simulator& sim, Radio radio,
                                     const RoutingTable* routes, TransportParams params)
    : sim_(&sim), radio_(radio), routes_(routes), params_(params) {}

bool ReliableTransport::send(sim::ProcessId final_dst, ReportPayload report) {
    if (!routes_->reachable(id(), final_dst)) return false;
    RelayEnvelopePayload env;
    env.source = id();
    env.final_dst = final_dst;
    env.seq = next_seq_++;
    env.ttl = params_.ttl;
    env.report = std::move(report);
    mark_seen(env.source, env.seq);  // don't loop back to self
    ++originated_;
    transmit_hop(env);
    return true;
}

void ReliableTransport::transmit_hop(const RelayEnvelopePayload& envelope) {
    const sim::ProcessId hop = routes_->next_hop(id(), envelope.final_dst);
    if (hop == sim::kNoProcess || envelope.ttl == 0) {
        ++gave_up_;
        return;
    }
    const std::uint64_t key = make_key(envelope.source, envelope.seq);
    PendingHop pending;
    pending.key = key;
    pending.envelope = envelope;
    pending.envelope.ttl = static_cast<std::uint8_t>(envelope.ttl - 1);
    pending.next_hop = hop;
    pending.retries_left = params_.max_retries;
    PendingHop* entry = find_pending(key);
    if (entry) {
        *entry = std::move(pending);
    } else {
        entry = &pending_.emplace_back(std::move(pending));
    }

    radio_.send(hop, entry->envelope);
    arm_retransmit(*entry);
}

ReliableTransport::PendingHop* ReliableTransport::find_pending(std::uint64_t key) {
    for (PendingHop& hop : pending_) {
        if (hop.key == key) return &hop;
    }
    return nullptr;
}

void ReliableTransport::erase_pending(PendingHop& hop) {
    if (&hop != &pending_.back()) hop = std::move(pending_.back());
    pending_.pop_back();
}

void ReliableTransport::arm_retransmit(PendingHop& hop) {
    hop.timer = sim_->schedule(params_.ack_timeout, [this, key = hop.key] {
        PendingHop* pending = find_pending(key);
        if (!pending) return;  // acked meanwhile
        if (pending->retries_left == 0) {
            ++gave_up_;
            erase_pending(*pending);
            return;
        }
        --pending->retries_left;
        ++retransmissions_;
        radio_.send(pending->next_hop, pending->envelope);
        arm_retransmit(*pending);
    });
}

bool ReliableTransport::mark_seen(sim::ProcessId source, std::uint32_t seq) {
    if (source >= seen_.size()) seen_.resize(std::size_t{source} + 1);
    std::vector<std::uint64_t>& bits = seen_[source];
    const std::size_t word = seq / 64;
    if (word >= bits.size()) bits.resize(word + 1, 0);
    const std::uint64_t bit = std::uint64_t{1} << (seq % 64);
    if (bits[word] & bit) return false;
    bits[word] |= bit;
    return true;
}

std::optional<Delivered> ReliableTransport::on_packet(const Packet& packet) {
    if (const auto* ack = packet.as<RelayAckPayload>()) {
        PendingHop* hop = find_pending(make_key(ack->source, ack->seq));
        if (hop && packet.src == hop->next_hop) {
            sim_->cancel(hop->timer);
            erase_pending(*hop);
        }
        return std::nullopt;
    }

    const auto* env = packet.as<RelayEnvelopePayload>();
    if (!env) return std::nullopt;

    // Hop-by-hop ack, including for duplicates (the ack may have been the
    // thing that was lost).
    RelayAckPayload ack;
    ack.source = env->source;
    ack.seq = env->seq;
    radio_.send(packet.src, ack);

    if (!mark_seen(env->source, env->seq)) {
        ++duplicates_;
        return std::nullopt;
    }

    if (env->final_dst == id()) {
        Delivered d;
        d.source = env->source;
        d.report = env->report;
        return d;
    }

    ++forwarded_;
    transmit_hop(*env);
    return std::nullopt;
}

}  // namespace tibfit::net
