#include "net/channel.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "obs/recorder.h"

namespace tibfit::net {

Channel::Channel(sim::Simulator& sim, util::Rng rng, ChannelParams params)
    : sim_(&sim), rng_(rng), params_(params) {}

void Channel::attach(sim::Process& process, const util::Vec2& position, double radio_range) {
    const sim::ProcessId id = process.id();
    // The endpoint table holds one slot per id up to the largest attached.
    if (id >= kMaxProcessId) throw std::out_of_range("Channel::attach: process id too large");
    if (id >= endpoints_.size()) endpoints_.resize(std::size_t{id} + 1);
    std::unique_ptr<Endpoint>& slot = endpoints_[id];
    // A re-attach starts afresh, except for the monitors listening on it.
    std::vector<sim::ProcessId> monitors;
    if (slot) monitors = std::move(slot->monitors);
    slot = std::make_unique<Endpoint>(
        Endpoint{&process, position, radio_range, -1.0, {}, {}, std::move(monitors)});
    ++topology_;
}

void Channel::detach(sim::ProcessId id) {
    if (id < endpoints_.size()) endpoints_[id].reset();
    ++topology_;
}

void Channel::set_position(sim::ProcessId id, const util::Vec2& position) {
    Endpoint* ep = find(id);
    if (!ep) throw std::out_of_range("Channel::set_position: unknown process");
    ep->position = position;
    ++topology_;
}

util::Vec2 Channel::position(sim::ProcessId id) const {
    const Endpoint* ep = find(id);
    if (!ep) throw std::out_of_range("Channel::position: unknown process");
    return ep->position;
}

void Channel::set_drop_probability(sim::ProcessId id, double p) {
    Endpoint* ep = find(id);
    if (!ep) throw std::out_of_range("Channel::set_drop_probability: unknown process");
    ep->drop_override = p;
}

void Channel::add_monitor(sim::ProcessId monitor, sim::ProcessId target) {
    Endpoint* ep = find(target);
    if (!ep) throw std::out_of_range("Channel::add_monitor: unknown target");
    auto& list = ep->monitors;
    if (std::find(list.begin(), list.end(), monitor) == list.end()) list.push_back(monitor);
}

void Channel::remove_monitor(sim::ProcessId monitor, sim::ProcessId target) {
    Endpoint* ep = find(target);
    if (!ep) return;
    auto& list = ep->monitors;
    list.erase(std::remove(list.begin(), list.end(), monitor), list.end());
}

void Channel::snoop(const std::shared_ptr<Packet>& body, const Endpoint& src,
                    const Endpoint& dst) {
    // Copies for monitors of either endpoint of a unicast.
    for (const Endpoint* watched : {&src, &dst}) {
        for (sim::ProcessId mon : watched->monitors) {
            if (mon == body->src || mon == body->dst) continue;
            Endpoint* to = find(mon);
            if (!to) continue;
            const double dist = util::distance(src.position, to->position);
            if (dist > src.range) continue;
            if (rng_.chance(sender_drop_probability(src))) continue;
            deliver(*to, body, dist);
        }
    }
}

void Channel::set_fault_schedule(std::vector<ChannelFaultWindow> windows, util::Rng rng) {
    fault_windows_ = std::move(windows);
    fault_rng_ = rng;
}

const ChannelFaultWindow* Channel::active_fault_window() const {
    if (fault_windows_.empty()) return nullptr;
    const double now = sim_->now();
    for (const auto& w : fault_windows_) {
        if (now >= w.start && now < w.end) return &w;
    }
    return nullptr;
}

double Channel::injected_extra_delay(const ChannelFaultWindow& w) {
    double extra = 0.0;
    if (w.delay_jitter > 0.0) {
        extra += fault_rng_.uniform(0.0, w.delay_jitter);
        ++injected_delays_;
    }
    if (w.reorder_probability > 0.0 && fault_rng_.chance(w.reorder_probability)) {
        extra += w.reorder_hold;
        ++injected_reorders_;
    }
    return extra;
}

void Channel::note_drop(const Packet& packet, obs::DropReason reason) {
    if (!recorder_ || !recorder_->trace().enabled()) return;
    // Only report-carrying packets are trace-worthy; control traffic
    // (adverts, affiliations, acks, ...) would drown the stream.
    if (!packet.as<ReportPayload>() && !packet.as<RelayEnvelopePayload>()) return;
    recorder_->trace().append(
        sim_->now(), obs::ReportDropped{static_cast<std::uint32_t>(packet.src),
                                        static_cast<std::uint32_t>(packet.dst), reason});
}

double Channel::sender_drop_probability(const Endpoint& sender) const {
    return sender.drop_override >= 0.0 ? sender.drop_override : params_.drop_probability;
}

namespace {

/// Runs one no-airtime delivery of a fan-out: stamps the receiver's rssi on
/// the send's shared body just before its handler runs (see
/// Process::handle_packet).
void receive(void* body, void* process, double rssi) {
    auto* packet = static_cast<Packet*>(body);
    packet->rssi = rssi;
    static_cast<sim::Process*>(process)->handle_packet(*packet);
}

}  // namespace

void Channel::deliver(Endpoint& to, const std::shared_ptr<Packet>& body, double dist,
                      double extra_delay) {
    const double delay = params_.base_latency + dist / params_.propagation_speed + extra_delay;
    const double rssi = 1.0 / (1.0 + dist * dist);
    sim::Process* process = to.process;

    // Without collisions a delivery is never cancelled: it joins the send's
    // fan-out, scheduled by flush() once the send has drawn all its coins.
    if (params_.airtime <= 0.0) {
        staged_.push_back(sim::FanoutItem{sim_->now() + delay, process, rssi});
        ++delivered_;
        return;
    }

    // Collision model: this reception occupies the receiver's radio for
    // [arrive, arrive + airtime). Any overlap with another in-flight
    // reception destroys both (the other is cancelled mid-air; this one is
    // kept only as a jam marker so a third packet collides with it too).
    const double now = sim_->now();
    const double arrive = now + delay;
    const double end = arrive + params_.airtime;

    auto& flights = to.in_flight;
    flights.erase(std::remove_if(flights.begin(), flights.end(),
                                 [now](const Reception& r) { return r.end <= now; }),
                  flights.end());

    bool collided = false;
    for (auto& r : flights) {
        if (arrive < r.end && r.start < end) {
            collided = true;
            if (sim_->cancel(r.timer)) ++collisions_;  // the victim dies mid-air
        }
    }
    if (collided) {
        ++collisions_;
        note_drop(*body, obs::DropReason::Collision);
        flights.push_back(Reception{arrive, end, sim::Timer{}});  // jam marker
        return;
    }
    // Each collision-model delivery is its own cancellable timer; the
    // closure (40 bytes) must stay inline in EventCallback, whatever fields
    // Packet grows.
    auto closure = [this, process, body, rssi] {
        ++delivered_;
        body->rssi = rssi;
        process->handle_packet(*body);
    };
    static_assert(sim::EventCallback::stores_inline<decltype(closure)>,
                  "a channel delivery closure must fit EventCallback's inline buffer");
    flights.push_back(Reception{arrive, end, sim_->schedule(delay, std::move(closure))});
}

void Channel::flush(std::shared_ptr<Packet> body) {
    if (staged_.empty()) return;
    // Cleared on every path, so a rejected fan-out cannot leak its items
    // into the next send.
    struct Clear {
        std::vector<sim::FanoutItem>& items;
        ~Clear() { items.clear(); }
    } clear{staged_};
    sim_->schedule_fanout(&receive, std::move(body), staged_);
}

bool Channel::transmit(Endpoint& to, const std::shared_ptr<Packet>& body, double dist,
                       const Endpoint& src) {
    if (rng_.chance(sender_drop_probability(src))) {
        ++dropped_;
        note_drop(*body, obs::DropReason::Natural);
        return false;
    }
    // Injected faults stack after the natural model, drawing only from the
    // dedicated fault stream. Per delivery the draw order is: drop coin,
    // delay extras (jitter then reorder), duplicate coin.
    const ChannelFaultWindow* w = active_fault_window();
    if (!w) {
        deliver(to, body, dist);
        return true;
    }
    if (w->extra_drop > 0.0 && fault_rng_.chance(w->extra_drop)) {
        ++injected_drops_;
        note_drop(*body, obs::DropReason::Injected);
        return false;
    }
    const double extra = injected_extra_delay(*w);
    if (w->duplicate_probability > 0.0 && fault_rng_.chance(w->duplicate_probability)) {
        ++injected_duplicates_;
        deliver(to, body, dist, injected_extra_delay(*w));
    }
    deliver(to, body, dist, extra);
    return true;
}

std::shared_ptr<Packet> Channel::make_body(Packet&& packet) {
    return std::allocate_shared<Packet>(sim::BodyAllocator<Packet>(sim_->body_pool()),
                                        std::move(packet));
}

bool Channel::unicast(Packet packet) {
    Endpoint* src = find(packet.src);
    if (!src) throw std::out_of_range("Channel::unicast: unknown sender");
    Endpoint* dst = find(packet.dst);
    if (!dst) {
        ++out_of_range_;
        note_drop(packet, obs::DropReason::OutOfRange);
        return false;
    }
    const double dist = util::distance(src->position, dst->position);
    if (dist > src->range) {
        ++out_of_range_;
        note_drop(packet, obs::DropReason::OutOfRange);
        return false;
    }
    packet.sent_at = sim_->now();
    // One body for the delivery, every monitor copy and any duplicate.
    auto body = make_body(std::move(packet));
    snoop(body, *src, *dst);
    const bool sent = transmit(*dst, body, dist, *src);
    flush(std::move(body));
    return sent;
}

const Channel::Plan& Channel::plan_for(sim::ProcessId id, Endpoint& src) {
    Plan& plan = src.plan;
    if (plan.topology == topology_) return plan;
    plan.topology = topology_;
    plan.hops.clear();
    plan.out_of_range = 0;
    bool orderable = true;
    for (std::size_t other = 0; other < endpoints_.size(); ++other) {
        Endpoint* ep = endpoints_[other].get();
        if (!ep || other == id) continue;
        const double dist = util::distance(src.position, ep->position);
        if (dist > src.range) {
            ++plan.out_of_range;
            continue;
        }
        // The expressions deliver() evaluates, so cached values are bit-equal.
        const double delay = params_.base_latency + dist / params_.propagation_speed + 0.0;
        orderable = orderable && !std::isnan(delay);
        plan.hops.push_back(Hop{ep, dist, delay, 1.0 / (1.0 + dist * dist)});
    }
    // A NaN delay has no place in (delay, id) order: keep id order then.
    if (orderable) {
        std::sort(plan.hops.begin(), plan.hops.end(), [](const Hop& a, const Hop& b) {
            if (a.delay != b.delay) return a.delay < b.delay;
            return a.to->process->id() < b.to->process->id();
        });
    }
    return plan;
}

std::size_t Channel::broadcast(Packet packet) {
    Endpoint* sender = find(packet.src);
    if (!sender) throw std::out_of_range("Channel::broadcast: unknown sender");
    Endpoint& src = *sender;
    packet.sent_at = sim_->now();
    packet.dst = kBroadcast;
    // Built once: every receiver's delivery shares this body.
    auto body = make_body(std::move(packet));

    const Plan& plan = plan_for(body->src, src);
    out_of_range_ += plan.out_of_range;

    // Same loss and injection stack as unicast, with independent coins per
    // receiver (broadcast receptions fail independently), drawn in plan
    // order. Collisions and injected faults go hop by hop through transmit.
    if (params_.airtime > 0.0 || active_fault_window()) {
        std::size_t n = 0;
        for (const Hop& hop : plan.hops) {
            if (transmit(*hop.to, body, hop.dist, src)) ++n;
        }
        flush(std::move(body));
        return n;
    }

    // One pass: draw each hop's coin and stage the survivor. now + delay
    // is monotone in delay, so the items come out in the fan-out's (time,
    // seq) order, even where distinct delays round to the same time.
    const double p = sender_drop_probability(src);
    const double now = sim_->now();
    for (const Hop& hop : plan.hops) {
        if (rng_.chance(p)) {
            ++dropped_;
            note_drop(*body, obs::DropReason::Natural);
            continue;
        }
        staged_.push_back(sim::FanoutItem{now + hop.delay, hop.to->process, hop.rssi});
    }
    const std::size_t n = staged_.size();
    delivered_ += n;
    flush(std::move(body));
    return n;
}

}  // namespace tibfit::net
