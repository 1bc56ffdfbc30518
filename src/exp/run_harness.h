// exp::detail::RunHarness — the wiring every experiment run shares.
//
// run_binary_experiment, run_location_experiment and exp::Deployment
// build different topologies (one CH with optional shadows or a failover
// standby; rotating CHs with a base station, mobility and decay;
// LEACH-elected CH roles co-located with the sensors) on the same
// skeleton. The harness owns that skeleton: the simulator, the root RNG,
// the recorder clock, the channel with its armed campaign, the compromise
// order, the sensor population, the relay fabric, the event generator,
// the invariant scope with one lockstep oracle per CH engine, the shared
// decision log and the end-of-run metrics. A runner keeps only its
// topology and its scoring.
//
// Event order is part of the output: every channel.attach and
// simulator.schedule* a runner makes through the harness happens exactly
// where the runner calls it, so the runner decides the order.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "check/shadow_arbiter.h"
#include "cluster/cluster_head.h"
#include "exp/scenario.h"
#include "inject/campaign.h"
#include "net/channel.h"
#include "net/routing.h"
#include "sensor/event_generator.h"
#include "sensor/fault_model.h"
#include "sensor/sensor_node.h"
#include "sim/simulator.h"
#include "util/invariant.h"
#include "util/rng.h"
#include "util/vec2.h"

namespace tibfit::exp::detail {

class RunHarness {
  public:
    /// Builds a node's behaviour for its current class. Called for every
    /// node at construction, for each node a compromise onset or decay
    /// epoch turns faulty, and for every faulty node on a fault-rate shift
    /// (after `faults` took the new rates).
    using BehaviorFactory = std::function<std::unique_ptr<sensor::FaultBehavior>(bool faulty)>;

    /// First event instant of every run.
    static constexpr double kStart = 5.0;

    /// Creates the simulator and root RNG, points the recorder's clock at
    /// the simulator, builds the channel and arms the scenario's campaign
    /// on it.
    explicit RunHarness(const Scenario& scenario);
    /// Detaches the recorder's clock: the simulator dies with the harness.
    ~RunHarness();
    RunHarness(const RunHarness&) = delete;
    RunHarness& operator=(const RunHarness&) = delete;

    /// Draws the compromise order (a seeded shuffle of n_nodes ids) and
    /// marks its first round(initial_pct * n_nodes) entries faulty.
    void choose_faulty(std::size_t n_nodes, double initial_pct);

    /// Raises the compromised fraction to `target_pct` by extending the
    /// prefix of the compromise order (decay epochs and campaign onsets).
    void raise_compromised(double target_pct);

    /// Constructs the next sensor (id = nodes.size()) with the behaviour
    /// of its class and attaches it to the channel.
    sensor::SensorNode& add_node(util::Vec2 position, double sensing_radius, double radio_range,
                                 bool binary_mode);

    /// Constructs a cluster head on `id` that knows the sensors at
    /// `topology`, reports to the recorder and appends every decision it
    /// announces to `decisions`; attaches it at `position` with reliable
    /// control traffic and adds it to `heads`.
    cluster::ClusterHead& add_head(sim::ProcessId id, const core::EngineConfig& cfg,
                                   const std::vector<util::Vec2>& topology, util::Vec2 position,
                                   double radio_range, bool binary_mode);

    /// With check.mode on: enables invariant evaluation for the rest of the
    /// run and attaches one lockstep oracle to each head's engine. With it
    /// off, nothing is touched and no hook fires.
    void check_engines(const core::EngineConfig& cfg);

    /// Rebuilds `routes` over the sensors (at `positions`, radio range
    /// `node_range`) and the heads (at their channel positions).
    void rebuild_routes(const std::vector<util::Vec2>& positions, double node_range,
                        double head_range);

    /// rebuild_routes, then routes every sensor's reports and every head's
    /// traffic over the ack/retry relay transport.
    void build_relay(const std::vector<util::Vec2>& positions, double node_range,
                     double head_range);

    /// Hands the sensors to the generator and, with a recorder, traces
    /// every generated event.
    void connect_generator();

    /// Wires the campaign's compromise onsets and fault-rate shifts, then
    /// schedules its timeline (a runner sets any on_failover first).
    void schedule_campaign();

    /// Fills the fields every result shares — the final mean TI of correct
    /// and faulty nodes in `final_trust` and the oracle tallies — and
    /// records the end-of-run metrics every run exports: event count,
    /// queue high water, accuracy, events, detected, the TI gauges and,
    /// under a campaign, the decisions made inside a degraded window.
    template <typename Result>
    void finish(Result& result, const core::TrustManager& final_trust) const {
        const TrustSplit ti = trust_split(final_trust);
        result.mean_ti_correct = ti.correct;
        result.mean_ti_faulty = ti.faulty;
        result.checked_decisions = checked_decisions();
        result.oracle_divergences = oracle_divergences();
        record_outcome(result.accuracy, result.events, result.detected, ti);
    }

    const Scenario& scenario;
    sim::Simulator simulator;
    util::Rng root;
    obs::Recorder* const rec;
    net::Channel channel;
    std::optional<inject::Campaign> campaign;
    const core::TrustParams trust;
    sensor::FaultParams faults;  ///< mutable: fault-rate shifts
    BehaviorFactory behavior;    ///< set by the runner before add_node
    std::vector<bool> faulty;
    std::vector<std::unique_ptr<sensor::SensorNode>> nodes;
    std::vector<std::unique_ptr<cluster::ClusterHead>> heads;
    net::RoutingTable routes;
    sensor::EventGenerator generator;
    std::vector<cluster::DecisionRecord> decisions;

  private:
    /// Final mean TI by ground-truth class (1.0 for an empty class).
    struct TrustSplit {
        double correct = 1.0;
        double faulty = 1.0;
        double all = 1.0;
    };

    TrustSplit trust_split(const core::TrustManager& tm) const;
    std::size_t checked_decisions() const;
    std::size_t oracle_divergences() const;
    void record_outcome(double accuracy, std::size_t events, std::size_t detected,
                        const TrustSplit& ti) const;

    std::vector<std::size_t> compromise_order_;
    std::optional<util::ScopedInvariantAction> check_scope_;
    std::vector<std::unique_ptr<check::ShadowArbiter>> shadows_;
};

}  // namespace tibfit::exp::detail
