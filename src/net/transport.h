// Reliable multi-hop report dissemination — the primitive Section 3.4
// says the multi-hop extension needs ("a reliable data dissemination
// primitive needs to be introduced to ensure that the data sent out by
// the sensing nodes reliably reach the data sink without alteration").
//
// Mechanism: each report is wrapped in a RelayEnvelope identified end to
// end by (source, seq) and forwarded along min-hop routes. Every hop is
// acknowledged; unacknowledged hops retransmit up to max_retries before
// giving up. Receivers suppress duplicate (source, seq) pairs, so
// delivery is at-least-once on the wire and exactly-once to the owner.
// Both halves of the pair are dense — sources are process ids and each
// source numbers its reports 0, 1, 2, ... — so the set of pairs a node
// has seen is one bitmap per source, indexed by seq.
//
// The transport is a shim any Process embeds: the owner calls send() to
// originate, funnels RelayEnvelope/RelayAck packets into on_packet(), and
// receives reports destined for itself from on_packet()'s return value.
// Nodes running the shim automatically forward traffic for others — in a
// WSN the sensors are the relays.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "net/radio.h"
#include "net/routing.h"
#include "sim/simulator.h"

namespace tibfit::obs {
class Counter;
class Recorder;
}  // namespace tibfit::obs

namespace tibfit::net {

/// Transport tunables.
struct TransportParams {
    double ack_timeout = 0.05;  ///< seconds before a hop retransmits
    std::uint32_t max_retries = 5;
    std::uint8_t ttl = 16;  ///< maximum hops end to end
};

/// A report delivered to this node as final destination.
struct Delivered {
    sim::ProcessId source = sim::kNoProcess;
    ReportPayload report;
};

/// Per-node reliable relay shim.
class ReliableTransport {
  public:
    /// The routing table must outlive the transport; the radio's id is the
    /// node this shim serves.
    ReliableTransport(sim::Simulator& sim, Radio radio, const RoutingTable* routes,
                      TransportParams params = {});

    sim::ProcessId id() const { return radio_.id(); }
    const TransportParams& params() const { return params_; }

    /// Originates a report toward `final_dst`. Returns false if no route
    /// exists (nothing is sent).
    bool send(sim::ProcessId final_dst, ReportPayload report);

    /// Offers an incoming packet to the transport. Non-relay packets are
    /// ignored (returns nullopt, owner should process them itself). Relay
    /// packets are consumed: acks settle pending hops, envelopes are
    /// forwarded — and if this node is the final destination of a fresh
    /// envelope, the report is returned for the owner to process.
    std::optional<Delivered> on_packet(const Packet& packet);

    // Telemetry.
    std::size_t originated() const { return originated_; }
    std::size_t forwarded() const { return forwarded_; }
    std::size_t retransmissions() const { return retransmissions_; }
    std::size_t gave_up() const { return gave_up_; }
    std::size_t duplicates_suppressed() const { return duplicates_; }
    /// Envelopes currently awaiting a hop ack.
    std::size_t in_flight() const { return pending_.size(); }

    /// Mirrors the telemetry counters into `recorder` (nullptr detaches).
    /// Many shims share one recorder; the named counters aggregate over
    /// every relay in the run.
    void set_recorder(obs::Recorder* recorder);

  private:
    /// Starts (or restarts) the reliable transmission of an envelope to
    /// the next hop toward its final destination.
    void transmit_hop(const RelayEnvelopePayload& envelope);
    static std::uint64_t make_key(sim::ProcessId source, std::uint32_t seq) {
        return (static_cast<std::uint64_t>(source) << 32) | seq;
    }
    /// Records (source, seq) as seen; false if it already was.
    bool mark_seen(sim::ProcessId source, std::uint32_t seq);

    struct PendingHop {
        std::uint64_t key;  ///< make_key(envelope.source, envelope.seq)
        RelayEnvelopePayload envelope;
        sim::ProcessId next_hop;
        std::uint32_t retries_left;
        sim::Timer timer;
    };
    /// The pending hop with this key, or nullptr.
    PendingHop* find_pending(std::uint64_t key);
    /// Removes `hop` from pending_ (swap with the last entry and pop).
    void erase_pending(PendingHop& hop);
    /// Schedules `hop`'s next retransmission check.
    void arm_retransmit(PendingHop& hop);

    sim::Simulator* sim_;
    Radio radio_;
    const RoutingTable* routes_;
    TransportParams params_;
    std::uint32_t next_seq_ = 0;
    /// Hops awaiting their ack, in no particular order. A node has only a
    /// few in flight (at most 14 per node on the multi-hop benches), so a
    /// linear scan beats hashing, and the entries need no node allocation.
    std::vector<PendingHop> pending_;
    /// seen_[source] bit seq: (source, seq) has been sent or accepted here.
    std::vector<std::vector<std::uint64_t>> seen_;
    std::size_t originated_ = 0;
    std::size_t forwarded_ = 0;
    std::size_t retransmissions_ = 0;
    std::size_t gave_up_ = 0;
    std::size_t duplicates_ = 0;
    obs::Counter* c_originated_ = nullptr;
    obs::Counter* c_forwarded_ = nullptr;
    obs::Counter* c_retransmissions_ = nullptr;
    obs::Counter* c_gave_up_ = nullptr;
    obs::Counter* c_duplicates_ = nullptr;
};

}  // namespace tibfit::net
