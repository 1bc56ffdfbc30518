#include "exp/binary_experiment.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/base_station.h"
#include "cluster/cluster_head.h"
#include "cluster/shadow.h"
#include "exp/run_harness.h"
#include "exp/scoring.h"
#include "obs/names.h"
#include "obs/recorder.h"

namespace tibfit::exp {

namespace {

/// Everything is in mutual radio/sensing range in Experiment 1.
constexpr double kBigRadius = 1000.0;

}  // namespace

BinaryResult run_binary_experiment(const Scenario& scenario) {
    const BinaryWorkload& wl = scenario.binary;
    const double field = scenario.deployment.field;
    const std::size_t n_nodes = wl.n_nodes;

    detail::RunHarness h(scenario);
    sim::Simulator& simulator = h.simulator;
    net::Channel& channel = h.channel;
    obs::Recorder* rec = h.rec;
    h.behavior = [&h](bool faulty) -> std::unique_ptr<sensor::FaultBehavior> {
        if (faulty) return std::make_unique<sensor::Level0Fault>(h.faults, /*binary_mode=*/true);
        return std::make_unique<sensor::CorrectBehavior>(h.faults);
    };

    // Choose which nodes are faulty (uniformly, deterministic per seed).
    // The shuffled order doubles as the compromise order for campaign
    // onsets: raising the compromised fraction extends the same prefix.
    h.choose_faulty(n_nodes, wl.pct_faulty);

    // Build the population.
    util::Rng placement = h.root.stream("placement");
    std::vector<util::Vec2> positions(n_nodes);
    const auto ch_id = static_cast<sim::ProcessId>(n_nodes);
    for (std::size_t i = 0; i < n_nodes; ++i) {
        positions[i] = placement.point_in_rect(field, field);
        h.add_node(positions[i], kBigRadius, kBigRadius, /*binary_mode=*/true)
            .set_cluster_head(ch_id);
    }

    core::EngineConfig engine_cfg = scenario.engine;
    engine_cfg.sensing_radius = kBigRadius;
    engine_cfg.trust = h.trust;

    cluster::ClusterHead& ch = h.add_head(ch_id, engine_cfg, positions, {field / 2.0, field / 2.0},
                                          kBigRadius, /*binary_mode=*/true);
    ch.set_corrupt(wl.corrupt_ch);

    // Section 3.4 machinery: two shadows monitoring the CH + a base
    // station whose vote becomes the authoritative output.
    const auto sch1_id = static_cast<sim::ProcessId>(n_nodes + 1);
    const auto sch2_id = static_cast<sim::ProcessId>(n_nodes + 2);
    const auto bs_id = static_cast<sim::ProcessId>(n_nodes + 3);
    std::optional<cluster::ShadowClusterHead> sch1, sch2;
    std::optional<cluster::BaseStation> station;
    if (wl.use_shadows) {
        ch.set_base_station(bs_id);
        sch1.emplace(simulator, sch1_id, net::Radio(channel, sch1_id), engine_cfg, ch_id,
                     bs_id);
        sch2.emplace(simulator, sch2_id, net::Radio(channel, sch2_id), engine_cfg, ch_id,
                     bs_id);
        for (auto* s : {&*sch1, &*sch2}) {
            s->set_binary_mode(true);
            s->set_topology(positions);
        }
        channel.attach(*sch1, {field / 2.0 + 1.0, field / 2.0}, kBigRadius);
        channel.attach(*sch2, {field / 2.0 - 1.0, field / 2.0}, kBigRadius);
        channel.set_drop_probability(sch1_id, 0.0);
        channel.set_drop_probability(sch2_id, 0.0);
        channel.add_monitor(sch1_id, ch_id);
        channel.add_monitor(sch2_id, ch_id);
        station.emplace(simulator, bs_id, net::Radio(channel, bs_id), h.trust,
                        /*alert_wait=*/engine_cfg.t_out / 2.0);
        channel.attach(*station, {field / 2.0, field + 20.0}, kBigRadius);
        channel.set_drop_probability(bs_id, 0.0);
    }

    // Standby CH for failover campaigns: attached and topology-aware from
    // the start but inactive, so it costs nothing until the kill event.
    cluster::ClusterHead* standby = nullptr;
    if (h.campaign && !scenario.campaign.failovers.empty()) {
        standby = &h.add_head(static_cast<sim::ProcessId>(n_nodes + 4), engine_cfg, positions,
                              {field / 2.0, field / 2.0 + 1.5}, kBigRadius,
                              /*binary_mode=*/true);
        standby->set_active(false);
    }

    h.check_engines(engine_cfg);

    // Optional ack/retry relay fabric: even in the single-hop cluster the
    // reliable transport retransmits reports the (possibly degraded)
    // channel eats, so correct nodes degrade gracefully under injection.
    if (wl.reliable_reports) h.build_relay(positions, kBigRadius, kBigRadius);

    h.connect_generator();

    if (standby) {
        h.campaign->on_failover([&](const inject::ChFailover& f, bool recovering) {
            cluster::ClusterHead& from = recovering ? *standby : ch;
            cluster::ClusterHead& to = recovering ? ch : *standby;
            const core::TrustCheckpoint ckpt = from.engine().trust().checkpoint();
            from.set_active(false);
            // begin_leadership reactivates `to` and re-attaches its
            // recorder; cold handoff hands over a fresh table instead.
            to.begin_leadership(f.warm_handoff ? core::TrustManager::restore(ckpt, rec)
                                               : core::TrustManager(h.trust));
            for (auto& n : h.nodes) n->set_cluster_head(to.id());
            if (rec) {
                rec->metrics().counter(obs::metric::kInjectFailovers).inc();
                if (rec->trace().enabled()) {
                    rec->trace().append(
                        simulator.now(),
                        obs::ChFailed{static_cast<std::uint32_t>(from.id()),
                                      static_cast<std::uint32_t>(to.id()), f.warm_handoff,
                                      static_cast<std::uint32_t>(ckpt.v.size())});
                }
            }
        });
    }
    h.schedule_campaign();

    const double start = detail::RunHarness::kStart;
    h.generator.schedule_events(wl.events, wl.event_interval, start);
    if (h.faults.false_alarm_rate > 0.0 ||
        (h.campaign && !scenario.campaign.fault_shifts.empty())) {
        // Jitter each node's false-alarm opportunity: level-0 alarms are
        // uncoordinated in time, but land close enough that several can
        // fall into one CH adjudication window (see BinaryWorkload). Quiet
        // windows are also scheduled when a fault shift could raise the
        // false-alarm rate mid-run.
        h.generator.schedule_quiet_windows(wl.events, wl.event_interval,
                                           start + wl.event_interval / 3.0,
                                           wl.false_alarm_spread_touts * engine_cfg.t_out);
    }

    simulator.run();

    // ---- Scoring ----
    std::vector<cluster::DecisionRecord>& decisions = h.decisions;
    const auto& history = h.generator.history();
    BinaryResult result;
    result.events = history.size();

    // With shadows deployed, the base station's vote is authoritative:
    // override each CH announcement with the station's final conclusion.
    if (wl.use_shadows) {
        detail::apply_station_verdicts(decisions, station->final_decisions());
        result.ch_overrides = station->overrides();
    }

    // Two CHs (failover) each keep a private decision sequence; scoring
    // matches on window-open times, so sort the merged log by time.
    if (standby) {
        std::stable_sort(decisions.begin(), decisions.end(),
                         [](const auto& a, const auto& b) { return a.time < b.time; });
    }

    const detail::BinaryScore score = detail::score_binary(history, decisions, engine_cfg.t_out);
    result.detected = score.detected;
    result.false_alarm_windows = score.false_alarm_windows;
    result.phantoms_declared = score.phantoms_declared;

    const std::size_t instances = result.events + result.false_alarm_windows;
    const std::size_t correct =
        result.detected + (result.false_alarm_windows - result.phantoms_declared);
    result.accuracy = instances ? static_cast<double>(correct) / static_cast<double>(instances)
                                : 0.0;
    result.detection_rate =
        result.events ? static_cast<double>(result.detected) / static_cast<double>(result.events)
                      : 0.0;

    // Final trust state, split by ground-truth class — read from whichever
    // CH is leading when the run ends.
    const cluster::ClusterHead& final_ch = standby && standby->active() ? *standby : ch;
    h.finish(result, final_ch.engine().trust());

    if (scenario.keep_decisions) result.decisions = decisions;
    return result;
}

}  // namespace tibfit::exp
