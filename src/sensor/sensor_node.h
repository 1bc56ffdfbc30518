// A sensing node on the network: senses events within r_s, runs its fault
// behaviour to decide what to report, transmits to the current cluster
// head, and — for smart behaviours — mirrors its own CH-side trust index
// from the CH's decision broadcasts.
#pragma once

#include <memory>
#include <optional>

#include "core/trust.h"
#include "net/packet.h"
#include "net/radio.h"
#include "net/transport.h"
#include "sensor/fault_model.h"
#include "sim/process.h"
#include "util/rng.h"
#include "util/vec2.h"

namespace tibfit::sensor {

/// One sensor node. NodeId (core) equals ProcessId (sim) for sensing nodes.
class SensorNode : public sim::Process {
  public:
    /// `trust_params` are the CH-side parameters a smart adversary mirrors
    /// ("aware partially of the system model", Section 2.1).
    SensorNode(sim::Simulator& sim, sim::ProcessId id, util::Vec2 position,
               double sensing_radius, net::Radio radio,
               std::unique_ptr<FaultBehavior> behavior, util::Rng rng,
               core::TrustParams trust_params = {});

    const util::Vec2& position() const { return position_; }
    /// Moves the node (mobility); the owner must also update the channel
    /// and any topology consumers (MobilityManager does all three).
    void set_position(const util::Vec2& p) { position_ = p; }
    double sensing_radius() const { return sensing_radius_; }
    NodeClass node_class() const { return behavior_->node_class(); }

    /// Points the node at its current data sink.
    void set_cluster_head(sim::ProcessId ch) { cluster_head_ = ch; }
    sim::ProcessId cluster_head() const { return cluster_head_; }

    /// Distributed LEACH affiliation (Section 2): for the next `window`
    /// seconds the node collects CH advertisements; at the deadline it
    /// affiliates with the strongest received signal — sending an
    /// AffiliatePayload and adopting that CH as its sink. If no advert is
    /// heard (channel loss), the previous sink is kept.
    void begin_affiliation(double window);

    /// True while an affiliation window is open.
    bool affiliating() const { return affiliating_; }

    /// Binary vs. location reporting (Experiment 1 vs. 2).
    void set_binary_mode(bool binary) { binary_mode_ = binary; }

    /// Random-access (CSMA-like) transmit jitter: each report is delayed
    /// by an independent uniform [0, max_delay) before hitting the air, so
    /// the reports of one event don't all collide at the receiver when the
    /// channel models contention (ChannelParams::airtime). 0 = transmit
    /// immediately.
    void set_tx_jitter(double max_delay) { tx_jitter_ = max_delay; }

    /// Enables multi-hop operation (Section 3.4 extension): reports travel
    /// toward the CH over the reliable relay transport, and this node
    /// forwards other nodes' envelopes. The routing table must outlive the
    /// node.
    void enable_relay(const net::RoutingTable* routes, net::TransportParams params = {});

    /// The relay shim, if enabled (telemetry).
    const net::ReliableTransport* transport() const {
        return transport_ ? &*transport_ : nullptr;
    }

    /// Swaps the behaviour (Experiment 3: a correct node being compromised
    /// mid-run). Trust history at the CH is unaffected, as in the paper.
    void set_behavior(std::unique_ptr<FaultBehavior> behavior);

    /// Ground-truth hook from the event generator: an event occurred within
    /// this node's sensing radius.
    void on_event(std::uint64_t event_id, const util::Vec2& location);

    /// Ground-truth hook: a quiet window in which the node may fabricate.
    void on_quiet_window(std::uint64_t window_id);

    /// The node's mirror of its CH-side TI (exact for the strongest
    /// adversary; correct nodes carry it too but never consult it).
    double tracked_ti() const { return tracked_.ti(trust_params_); }

    /// Number of reports this node has transmitted.
    std::size_t reports_sent() const { return reports_sent_; }

    // sim::Process
    void handle_packet(const net::Packet& packet) override;

  private:
    void transmit(const SenseAction& action);
    SenseContext make_context(std::uint64_t event_id, const util::Vec2& true_location) const;

    util::Vec2 position_;
    double sensing_radius_;
    net::Radio radio_;
    std::optional<net::ReliableTransport> transport_;
    std::unique_ptr<FaultBehavior> behavior_;
    util::Rng rng_;
    core::TrustParams trust_params_;
    core::TrustIndex tracked_;
    sim::ProcessId cluster_head_ = sim::kNoProcess;
    bool binary_mode_ = false;
    double tx_jitter_ = 0.0;
    std::size_t reports_sent_ = 0;

    // Affiliation window state.
    bool affiliating_ = false;
    std::uint32_t affiliation_epoch_ = 0;  ///< invalidates stale deadlines
    sim::ProcessId best_advert_ = sim::kNoProcess;
    double best_rssi_ = 0.0;
};

}  // namespace tibfit::sensor
