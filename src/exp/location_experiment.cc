#include "exp/location_experiment.h"

#include <cmath>
#include <memory>
#include <vector>

#include "cluster/base_station.h"
#include "cluster/cluster_head.h"
#include "exp/run_harness.h"
#include "exp/scoring.h"
#include "obs/names.h"
#include "obs/recorder.h"
#include "sensor/collusion.h"
#include "sensor/mobility.h"

namespace tibfit::exp {

namespace {

/// Radio range covering the whole field plus the off-field base station.
constexpr double kRange = 400.0;

/// Builds the behaviour object for one (possibly shared-channel) node.
std::unique_ptr<sensor::FaultBehavior> make_behavior(
    sensor::NodeClass cls, const sensor::FaultParams& fp,
    const std::shared_ptr<sensor::CollusionChannel>& collusion) {
    switch (cls) {
        case sensor::NodeClass::Correct:
            return std::make_unique<sensor::CorrectBehavior>(fp);
        case sensor::NodeClass::Level0:
            return std::make_unique<sensor::Level0Fault>(fp, /*binary_mode=*/false);
        case sensor::NodeClass::Level1:
            return std::make_unique<sensor::Level1Fault>(fp, /*binary_mode=*/false);
        case sensor::NodeClass::Level2:
            return std::make_unique<sensor::Level2Fault>(fp, /*binary_mode=*/false, collusion);
    }
    return nullptr;
}

}  // namespace

LocationResult run_location_experiment(const Scenario& scenario) {
    const LocationWorkload& wl = scenario.location;
    const double field = scenario.deployment.field;
    const double sensing_radius = scenario.deployment.sensing_radius;
    const std::size_t n_nodes = wl.n_nodes;

    detail::RunHarness h(scenario);
    sim::Simulator& simulator = h.simulator;
    net::Channel& channel = h.channel;
    obs::Recorder* rec = h.rec;

    auto collusion = std::make_shared<sensor::CollusionChannel>(
        h.root.stream("collusion"), h.faults, /*binary_mode=*/false);
    h.behavior = [&h, &wl, collusion](bool faulty) {
        return make_behavior(faulty ? wl.fault_level : sensor::NodeClass::Correct, h.faults,
                             collusion);
    };

    // ---- Node placement ----
    std::vector<util::Vec2> positions(n_nodes);
    if (wl.grid_layout) {
        const auto side = static_cast<std::size_t>(
            std::llround(std::sqrt(static_cast<double>(n_nodes))));
        const double spacing = field / static_cast<double>(side);
        for (std::size_t i = 0; i < n_nodes; ++i) {
            const std::size_t gx = i % side;
            const std::size_t gy = i / side;
            positions[i] = {spacing * (0.5 + static_cast<double>(gx)),
                            spacing * (0.5 + static_cast<double>(gy))};
        }
    } else {
        util::Rng placement = h.root.stream("placement");
        for (auto& p : positions) p = placement.point_in_rect(field, field);
    }

    // ---- Compromise order ----
    // A fixed random permutation decides which nodes are (or become) faulty;
    // the decay schedule — and any campaign compromise onsets — extend the
    // compromised prefix over time.
    h.choose_faulty(n_nodes, wl.decay ? wl.decay_initial : wl.pct_faulty);

    // ---- Nodes ----
    const double sensor_range = wl.multihop ? wl.radio_range : kRange;
    for (std::size_t i = 0; i < n_nodes; ++i) {
        h.add_node(positions[i], sensing_radius, sensor_range, /*binary_mode=*/false)
            .set_tx_jitter(wl.tx_jitter);
    }

    // ---- Cluster heads + base station ----
    core::EngineConfig engine_cfg = scenario.engine;
    engine_cfg.sensing_radius = sensing_radius;
    engine_cfg.trust = h.trust;

    const auto bs_id = static_cast<sim::ProcessId>(n_nodes + wl.n_ch);
    for (std::size_t c = 0; c < wl.n_ch; ++c) {
        // CHs sit near the field centre, spread slightly so they are
        // distinct radio endpoints.
        const util::Vec2 pos{field / 2.0 + 2.0 * static_cast<double>(c), field / 2.0};
        cluster::ClusterHead& head = h.add_head(static_cast<sim::ProcessId>(n_nodes + c),
                                                engine_cfg, positions, pos, kRange,
                                                /*binary_mode=*/false);
        head.set_base_station(bs_id);
        head.set_active(c == 0);
    }
    const auto& heads = h.heads;

    cluster::BaseStation station(simulator, bs_id, net::Radio(channel, bs_id), h.trust);
    channel.attach(station, {field / 2.0, field + 20.0}, kRange);
    channel.set_drop_probability(bs_id, 0.0);

    for (auto& n : h.nodes) n->set_cluster_head(heads.front()->id());

    // Rotation hands the trust table between heads; each oracle resyncs on
    // adoption.
    h.check_engines(engine_cfg);

    // ---- Multi-hop relay fabric (Section 3.4 extension) ----
    // Sensors route reports toward the CHs through each other; CHs unwrap.
    if (wl.multihop) h.build_relay(positions, sensor_range, kRange);

    // ---- Mobility (Section 2 extension) ----
    sensor::MobilityParams mob_params = scenario.mobility;
    mob_params.field_w = field;
    mob_params.field_h = field;
    sensor::MobilityManager mobility(simulator, h.root.stream("mobility"), mob_params);
    if (wl.mobile) {
        for (auto& n : h.nodes) mobility.manage(*n, channel);
        mobility.on_tick([&] {
            // The CHs re-estimate node positions (Section 2's requirement
            // for mobile operation); relay routes are rebuilt when in use.
            std::vector<util::Vec2> current(n_nodes);
            for (std::size_t i = 0; i < n_nodes; ++i) current[i] = h.nodes[i]->position();
            for (auto& head : heads) head->set_topology(current);
            if (wl.multihop) h.rebuild_routes(current, sensor_range, kRange);
        });
    }

    // ---- Event schedule ----
    h.connect_generator();

    std::size_t total_events = wl.events;
    if (wl.decay) {
        const auto epochs = static_cast<std::size_t>(
            std::llround((wl.decay_final - wl.decay_initial) / wl.decay_step)) + 1;
        total_events = epochs * wl.decay_epoch_events;
    }
    const double start = detail::RunHarness::kStart;
    const std::size_t instants = (total_events + wl.burst - 1) / wl.burst;
    h.generator.schedule_events(instants, wl.event_interval, start, wl.burst,
                                wl.burst > 1 ? engine_cfg.r_error : 0.0);
    if (h.faults.false_alarm_rate > 0.0) {
        h.generator.schedule_quiet_windows(instants, wl.event_interval,
                                           start + wl.event_interval / 3.0,
                                           wl.event_interval / 3.0);
    }

    // ---- CH rotation schedule ----
    // Rotations happen between events, every rotation_period event instants.
    const double rotation_gap = wl.event_interval / 2.0;
    std::size_t active_ch = 0;
    const std::size_t n_rotations =
        wl.rotation_period ? instants / wl.rotation_period : 0;
    for (std::size_t r = 1; r <= n_rotations; ++r) {
        const double at = start +
                          wl.event_interval * static_cast<double>(r * wl.rotation_period) -
                          rotation_gap;
        if (at <= start) continue;
        simulator.schedule_at(at, [&heads, &h, &active_ch, n_ch = wl.n_ch] {
            heads[active_ch]->end_leadership();
            active_ch = (active_ch + 1) % n_ch;
            heads[active_ch]->set_active(true);
            heads[active_ch]->request_archive();
            for (auto& n : h.nodes) n->set_cluster_head(heads[active_ch]->id());
        });
    }

    // ---- Decay schedule (Experiment 3) ----
    if (wl.decay) {
        const auto epochs = total_events / wl.decay_epoch_events;
        for (std::size_t e = 1; e < epochs; ++e) {
            const double at = start +
                              wl.event_interval *
                                  static_cast<double>(e * wl.decay_epoch_events) -
                              rotation_gap / 2.0;
            const double target_pct = wl.decay_initial +
                                      wl.decay_step * static_cast<double>(e);
            simulator.schedule_at(at, [&h, target_pct] { h.raise_compromised(target_pct); });
        }
    }

    // ---- Campaign timeline (channel windows armed by the harness) ----
    h.schedule_campaign();

    if (wl.mobile) {
        mobility.start(start + wl.event_interval * static_cast<double>(instants));
    }

    simulator.run();

    // ---- Scoring ----
    const std::vector<cluster::DecisionRecord>& decisions = h.decisions;
    const auto& history = h.generator.history();
    LocationResult result;
    result.events = history.size();
    const double match_window = 3.0 * engine_cfg.t_out + 1.0;

    detail::LocationScore score = detail::score_location(history, decisions, match_window,
                                                         engine_cfg.r_error, wl.epoch_events);
    result.detected = score.detected;
    result.false_positives = score.false_positives;
    result.epoch_accuracy = std::move(score.epoch_accuracy);
    result.accuracy = result.events
                          ? static_cast<double>(result.detected) /
                                static_cast<double>(result.events)
                          : 0.0;

    // Final trust state from the currently active CH.
    const auto& tm = heads[active_ch]->engine().trust();
    result.isolated = tm.isolated_nodes().size();
    h.finish(result, tm);
    if (rec) {
        auto& reg = rec->metrics();
        reg.gauge(obs::metric::kExpFalsePositives)
            .set(static_cast<double>(result.false_positives));
        reg.gauge(obs::metric::kExpIsolated).set(static_cast<double>(result.isolated));
    }

    if (wl.keep_trace) {
        result.trace_events = history;
        result.trace_decisions = std::move(h.decisions);
    }
    return result;
}

}  // namespace tibfit::exp
