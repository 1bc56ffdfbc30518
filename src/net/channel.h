// The wireless broadcast medium. Replaces the ns-2 channel (DESIGN.md §2):
// the only channel behaviours the paper's evaluation leans on are (a)
// distance-limited delivery, (b) propagation delay, and (c) a small random
// per-packet loss ("correct nodes' packets are naturally dropped less than
// 1% of the time"), all of which are parameters here.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.h"
#include "sim/process.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/vec2.h"

namespace tibfit::obs {
class Recorder;
enum class DropReason;
}  // namespace tibfit::obs

namespace tibfit::net {

/// Channel loss/delay tunables.
struct ChannelParams {
    double drop_probability = 0.01;  ///< per-packet natural loss
    double base_latency = 1e-4;      ///< fixed per-hop latency (seconds)
    double propagation_speed = 3e4;  ///< units per second
    /// MAC contention model: how long a packet occupies a receiver's
    /// radio. Two receptions at one receiver overlapping in time collide
    /// and BOTH are lost (the ns-2 runs the paper used model contention at
    /// the MAC; this is the coarse equivalent). 0 disables collisions.
    double airtime = 0.0;
};

/// One timed window of injected channel misbehaviour (fault-injection
/// campaigns, inject::CampaignSpec). Active while start <= now < end; all
/// probabilities stack on top of the natural channel model. Injection coins
/// are drawn from a dedicated stream installed by set_fault_schedule, so an
/// armed-but-idle (or absent) schedule never perturbs the natural stream.
struct ChannelFaultWindow {
    double start = 0.0;
    double end = 0.0;                  ///< exclusive; end <= start is an empty window
    double extra_drop = 0.0;           ///< additional per-packet loss probability
    double duplicate_probability = 0.0;///< chance a delivered packet arrives twice
    double delay_jitter = 0.0;         ///< uniform [0, delay_jitter) added latency
    double reorder_probability = 0.0;  ///< chance a packet is held back
    double reorder_hold = 0.0;         ///< hold-back duration when reordered
};

/// Single shared medium; all attached processes hear broadcasts within
/// their radio range of the sender.
class Channel {
  public:
    Channel(sim::Simulator& sim, util::Rng rng, ChannelParams params = {});

    /// Attaches a process at a position with a radio range. A process must
    /// be attached before it can send or receive; re-attaching updates
    /// position/range. Throws std::out_of_range on an id of 2^20 or more
    /// (ids are dense: node i has id i).
    void attach(sim::Process& process, const util::Vec2& position, double radio_range);

    /// Removes a process from the medium (failed / departed node).
    void detach(sim::ProcessId id);

    /// Moves an attached process (mobile networks).
    void set_position(sim::ProcessId id, const util::Vec2& position);

    /// Position of an attached process.
    util::Vec2 position(sim::ProcessId id) const;

    /// Overrides the natural loss rate for packets sent *by* this process.
    void set_drop_probability(sim::ProcessId id, double p);

    /// Registers `monitor` as a promiscuous listener on `target`: it
    /// receives copies of unicast packets sent to or by `target` (shadow
    /// cluster heads "listen in to the communication going in and out of
    /// the CH", Section 3.4). Each copy takes an independent loss coin.
    /// The registration lives on `target`'s endpoint: re-attaching keeps
    /// it, detaching drops it. Throws std::out_of_range on an unattached
    /// target.
    void add_monitor(sim::ProcessId monitor, sim::ProcessId target);

    /// Removes a monitor registration (a no-op if there is none).
    void remove_monitor(sim::ProcessId monitor, sim::ProcessId target);

    /// Sends to one destination. The packet is lost if the destination is
    /// detached, out of the sender's radio range, or the loss coin fires.
    /// Returns true if delivery was scheduled.
    bool unicast(Packet packet);

    /// Sends to every other attached process within the sender's radio
    /// range, with an independent loss coin per receiver, drawn in (delay,
    /// id) order. Returns the number of deliveries scheduled. The
    /// receivers, distances and delays come from the sender's cached plan
    /// (rebuilt after any attach, detach or set_position), so a send does
    /// no distance walk and, without airtime or an active fault window,
    /// stages its deliveries already in time order.
    std::size_t broadcast(Packet packet);

    /// Installs an injected-fault schedule. `rng` must be a dedicated
    /// substream (never the stream natural loss draws from): injection
    /// coins come only from it, and only while a window is active, so a run
    /// with an empty schedule is byte-identical to one with no schedule at
    /// all. Replaces any previous schedule; an empty vector disarms.
    void set_fault_schedule(std::vector<ChannelFaultWindow> windows, util::Rng rng);

    /// True while a non-empty fault schedule is installed.
    bool fault_schedule_armed() const { return !fault_windows_.empty(); }

    // Telemetry. The run harness exports these counts to a recorder's
    // registry once, at the end of the run.
    std::size_t delivered() const { return delivered_; }
    std::size_t dropped() const { return dropped_; }
    std::size_t out_of_range() const { return out_of_range_; }
    std::size_t collisions() const { return collisions_; }
    std::size_t injected_drops() const { return injected_drops_; }
    std::size_t injected_duplicates() const { return injected_duplicates_; }
    std::size_t injected_delays() const { return injected_delays_; }
    std::size_t injected_reorders() const { return injected_reorders_; }

    /// Attaches `recorder` for tracing (nullptr detaches): with tracing
    /// enabled, drops of report-carrying packets emit ReportDropped trace
    /// records.
    void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

  private:
    /// One in-flight reception at an endpoint (collision model).
    struct Reception {
        double start;
        double end;
        sim::Timer timer;  ///< inert for jam markers of already-lost packets
    };

    struct Endpoint;

    /// One in-range receiver of a sender's broadcast, with the delivery's
    /// distance, delay and rssi computed exactly as deliver() computes them.
    struct Hop {
        Endpoint* to;
        double dist;
        double delay;
        double rssi;
    };

    /// A sender's broadcast plan: what every broadcast from it recomputed
    /// before, cached until the topology changes.
    struct Plan {
        std::uint64_t topology = 0;  ///< topology_ it was built at; 0 = never
        /// In-range receivers in (delay, id) order; in id order if a delay
        /// is NaN (such a send is refused by the simulator, as it always was).
        std::vector<Hop> hops;
        std::size_t out_of_range = 0;  ///< receivers the walk skipped
    };

    struct Endpoint {
        sim::Process* process;
        util::Vec2 position;
        double range;
        double drop_override = -1.0;  // < 0 means "use params_"
        std::vector<Reception> in_flight;
        Plan plan;
        std::vector<sim::ProcessId> monitors;  ///< listeners on this endpoint
    };

    /// `src`'s plan, rebuilt first if the topology changed since.
    const Plan& plan_for(sim::ProcessId id, Endpoint& src);
    double sender_drop_probability(const Endpoint& sender) const;
    /// Draws the natural and injected loss coins for one reception of
    /// `body` at `to` (sent by `src`), and delivers it (plus any injected
    /// duplicate) if it survives. Returns true if it was delivered.
    bool transmit(Endpoint& to, const std::shared_ptr<Packet>& body, double dist,
                  const Endpoint& src);
    /// Delivers one reception of the shared `body` at `to`: staged for the
    /// send's fan-out without airtime, a cancellable timer with it.
    void deliver(Endpoint& to, const std::shared_ptr<Packet>& body, double dist,
                 double extra_delay = 0.0);
    /// Schedules the send's staged deliveries as one fan-out sharing `body`.
    void flush(std::shared_ptr<Packet> body);
    /// Copies a unicast to the monitors of its sender and its receiver.
    void snoop(const std::shared_ptr<Packet>& body, const Endpoint& src, const Endpoint& dst);
    void note_drop(const Packet& packet, obs::DropReason reason);

    /// Fault window covering the current simulation time, or nullptr.
    const ChannelFaultWindow* active_fault_window() const;
    /// Draws the injected delay-jitter / reorder-hold extras for one
    /// delivery under `w`. Consumes fault_rng_ only.
    double injected_extra_delay(const ChannelFaultWindow& w);

    /// Ids at or above this are refused by attach: the endpoint table
    /// needs a slot for every id below the one attached.
    static constexpr sim::ProcessId kMaxProcessId = sim::ProcessId{1} << 20;

    /// The attached endpoint with this id, or nullptr.
    Endpoint* find(sim::ProcessId id) const {
        return id < endpoints_.size() ? endpoints_[id].get() : nullptr;
    }
    /// A shared body for one send, from the simulator's body pool.
    std::shared_ptr<Packet> make_body(Packet&& packet);

    sim::Simulator* sim_;
    util::Rng rng_;
    ChannelParams params_;
    /// endpoints_[id] is the endpoint attached with that id, or null.
    /// Process ids are dense (node i has id i), so this is a direct lookup,
    /// and a walk over it visits the endpoints in id order.
    std::vector<std::unique_ptr<Endpoint>> endpoints_;
    /// Bumped by attach, detach and set_position; a plan built at an older
    /// value is stale (and may hold dangling Endpoint pointers).
    std::uint64_t topology_ = 1;
    /// The current send's no-airtime deliveries, in scheduling order.
    std::vector<sim::FanoutItem> staged_;
    std::vector<ChannelFaultWindow> fault_windows_;
    util::Rng fault_rng_{0};
    std::size_t delivered_ = 0;
    std::size_t dropped_ = 0;
    std::size_t out_of_range_ = 0;
    std::size_t collisions_ = 0;
    std::size_t injected_drops_ = 0;
    std::size_t injected_duplicates_ = 0;
    std::size_t injected_delays_ = 0;
    std::size_t injected_reorders_ = 0;
    obs::Recorder* recorder_ = nullptr;
};

}  // namespace tibfit::net
