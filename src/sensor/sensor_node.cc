#include "sensor/sensor_node.h"

#include <stdexcept>

namespace tibfit::sensor {

SensorNode::SensorNode(sim::Simulator& sim, sim::ProcessId id, util::Vec2 position,
                       double sensing_radius, net::Radio radio,
                       std::unique_ptr<FaultBehavior> behavior, util::Rng rng,
                       core::TrustParams trust_params)
    : sim::Process(sim, id),
      position_(position),
      sensing_radius_(sensing_radius),
      radio_(radio),
      behavior_(std::move(behavior)),
      rng_(rng),
      trust_params_(trust_params) {
    if (!behavior_) throw std::invalid_argument("SensorNode: null behavior");
}

void SensorNode::enable_relay(const net::RoutingTable* routes, net::TransportParams params) {
    transport_.emplace(sim(), radio_, routes, params);
}

void SensorNode::begin_affiliation(double window) {
    affiliating_ = true;
    best_advert_ = sim::kNoProcess;
    best_rssi_ = 0.0;
    const std::uint32_t epoch = ++affiliation_epoch_;
    sim().schedule(window, [this, epoch] {
        if (epoch != affiliation_epoch_) return;  // superseded by a newer window
        affiliating_ = false;
        if (best_advert_ == sim::kNoProcess) return;  // heard nothing: keep old sink
        cluster_head_ = best_advert_;
        net::AffiliatePayload join;
        radio_.send(cluster_head_, join);
    });
}

void SensorNode::set_behavior(std::unique_ptr<FaultBehavior> behavior) {
    if (!behavior) throw std::invalid_argument("SensorNode::set_behavior: null behavior");
    behavior_ = std::move(behavior);
}

SenseContext SensorNode::make_context(std::uint64_t event_id,
                                      const util::Vec2& true_location) const {
    SenseContext ctx;
    ctx.event_id = event_id;
    ctx.true_location = true_location;
    ctx.node_position = position_;
    ctx.sensing_radius = sensing_radius_;
    ctx.tracked_ti = tracked_ti();
    return ctx;
}

void SensorNode::on_event(std::uint64_t event_id, const util::Vec2& location) {
    transmit(behavior_->on_event(make_context(event_id, location), rng_));
}

void SensorNode::on_quiet_window(std::uint64_t window_id) {
    transmit(behavior_->on_quiet(make_context(window_id, position_), rng_));
}

void SensorNode::transmit(const SenseAction& action) {
    if (!action.report) return;
    if (cluster_head_ == sim::kNoProcess) return;  // no sink yet (election in progress)
    net::ReportPayload payload;
    payload.positive = action.positive;
    if (!binary_mode_ && action.location) {
        payload.has_location = true;
        payload.offset = core::PolarOffset::from_cartesian(*action.location - position_);
    }
    const sim::ProcessId sink = cluster_head_;
    auto put_on_air = [this, sink, payload]() {
        if (transport_) {
            transport_->send(sink, payload);
        } else {
            radio_.send(sink, payload);
        }
    };
    if (tx_jitter_ > 0.0) {
        sim().schedule(rng_.uniform(0.0, tx_jitter_), put_on_air);
    } else {
        put_on_air();
    }
    ++reports_sent_;
}

void SensorNode::handle_packet(const net::Packet& packet) {
    // Mirror the CH's judgements to track our own TI (smart adversaries).
    // Decision broadcasts are most of what a node hears, so they go first.
    if (const auto* d = packet.as<net::DecisionPayload>()) {
        const unsigned verdict = d->verdict_of(id());
        if (verdict & net::kJudgedCorrect) tracked_.record_correct(trust_params_);
        if (verdict & net::kJudgedFaulty) tracked_.record_faulty(trust_params_);
        return;
    }

    // Relay traffic is consumed by the transport shim (this node forwards
    // for others; reports never terminate at a sensing node).
    if (packet.as<net::RelayEnvelopePayload>() || packet.as<net::RelayAckPayload>()) {
        if (transport_) transport_->on_packet(packet);
        return;
    }

    // Learn the current CH from its advertisements.
    if (packet.as<net::ChAdvertPayload>()) {
        if (affiliating_) {
            // Section 2: "affiliates itself with a single CH based on the
            // strength of the signal received".
            if (packet.rssi > best_rssi_) {
                best_rssi_ = packet.rssi;
                best_advert_ = packet.src;
            }
        } else if (cluster_head_ == sim::kNoProcess) {
            // Standalone nodes adopt the first advertiser they hear.
            cluster_head_ = packet.src;
        }
    }
}

}  // namespace tibfit::sensor
