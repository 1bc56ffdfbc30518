// exp::Deployment — the self-organizing multi-cluster network, the full
// Section-2 system model: "All nodes in the network are identical and are
// arranged into disjoint clusters, each with a set of cluster heads ...
// The CHs are rotated over time and CH election is based on
// energy-related parameters of the constituent nodes", gated by the
// paper's trust-index threshold.
//
// Unlike run_location_experiment (which mirrors the paper's evaluation
// setup of dedicated CH entities), a Deployment elects its cluster heads
// from among the sensing nodes with LEACH every round: the elected node's
// co-located CH role activates, affiliating nodes report to the nearest
// head, energy drains per transmission (so leadership rotates), and the
// base station archives trust across rounds. It builds on the same
// detail::RunHarness as the experiment runners, so a Scenario supplies
// its seed, engine, channel, faults and field.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/base_station.h"
#include "cluster/energy.h"
#include "cluster/leach.h"
#include "exp/run_harness.h"
#include "exp/scenario.h"

namespace tibfit::exp {

/// What LEACH rotation and the energy model need beyond the Scenario.
struct DeploymentConfig {
    cluster::LeachParams leach;     ///< ch_fraction + TI admission threshold
    double round_duration = 100.0;  ///< seconds of leadership per round
    double initial_energy = 1.0;    ///< joules per node
    cluster::EnergyParams energy;
    /// Energy billing approximations (bits per message).
    std::size_t report_bits = 2000;
    std::size_t uplink_bits = 4000;  ///< CH aggregate to the base station
    double uplink_distance = 120.0;  ///< CH -> base station
};

/// One round's election outcome, recorded for inspection.
struct RoundRecord {
    std::uint32_t round = 0;
    std::vector<sim::ProcessId> heads;
    bool drafted = false;
    std::size_t alive = 0;  ///< nodes with battery left
};

/// Builds and runs a complete self-organizing network.
class Deployment {
  public:
    /// Sensor i sits at `positions[i]` and is level-0 faulty when
    /// `faulty[i]`. Reads the scenario's seed, engine, channel, faults,
    /// deployment.field, deployment.sensing_radius and check mode. Throws
    /// std::invalid_argument when the sizes differ or a campaign is set.
    Deployment(const Scenario& scenario, DeploymentConfig config,
               std::vector<util::Vec2> positions, std::vector<bool> faulty);

    /// Runs LEACH rounds until simulation time `until` (the first election
    /// at time 0), then runs the simulator until it is idle.
    void run(double until);

    /// The event source (configure schedules before run()).
    sensor::EventGenerator& generator() { return h_.generator; }

    /// Every decision any head has announced, in arrival order.
    const std::vector<cluster::DecisionRecord>& decisions() const { return h_.decisions; }

    /// Generated events with a declared, located decision at most 5 s
    /// after them and within engine.r_error of them.
    std::size_t detected_events() const;

    /// Election history.
    const std::vector<RoundRecord>& rounds() const { return rounds_; }

    /// The base station (trust archive across rounds).
    const cluster::BaseStation& base_station() const { return station_; }

    /// Node battery fraction remaining.
    double battery_fraction(sim::ProcessId node) const;

    /// Nodes with battery remaining.
    std::size_t alive_nodes() const;

  private:
    void run_round();
    void bill_energy();
    sim::ProcessId host_id(sim::ProcessId node) const;

    const Scenario scenario_;  ///< h_ keeps a reference
    detail::RunHarness h_;
    const DeploymentConfig config_;
    const std::vector<util::Vec2> positions_;
    cluster::BaseStation station_;
    cluster::LeachElection election_;

    std::vector<cluster::Battery> batteries_;
    std::vector<std::size_t> reports_billed_;  ///< per node, reports already charged
    std::vector<sim::ProcessId> active_heads_;
    std::vector<RoundRecord> rounds_;
    std::uint32_t round_ = 0;
    double until_ = 0.0;
};

}  // namespace tibfit::exp
