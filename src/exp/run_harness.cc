#include "exp/run_harness.h"

#include <numeric>
#include <utility>

#include "obs/names.h"
#include "obs/recorder.h"

namespace tibfit::exp::detail {

RunHarness::RunHarness(const Scenario& s)
    : scenario(s),
      root(s.seed),
      rec(s.recorder),
      channel(simulator, root.stream("channel"), s.channel),
      trust(s.effective_trust()),
      faults(s.faults),
      generator(simulator, root.stream("events"), s.deployment.field, s.deployment.field) {
    if (rec) {
        obs::preregister_standard_metrics(rec->metrics());
        rec->set_clock([this] { return simulator.now(); });
    }
    channel.set_recorder(rec);  // traces drops; counts are exported at the end
    // One Campaign per run; its streams derive from the run's root, so a
    // campaign replayed under a different trial seed reshuffles its coins
    // exactly like every other component.
    if (s.campaign.enabled()) {
        campaign.emplace(s.campaign, simulator, root.stream("inject"));
        campaign->set_recorder(rec);
        campaign->arm_channel(channel);
    }
}

RunHarness::~RunHarness() {
    if (rec) rec->set_clock({});
}

void RunHarness::choose_faulty(std::size_t n_nodes, double initial_pct) {
    compromise_order_.resize(n_nodes);
    std::iota(compromise_order_.begin(), compromise_order_.end(), 0);
    util::Rng pick = root.stream("select");
    for (std::size_t i = n_nodes; i > 1; --i) {
        std::swap(compromise_order_[i - 1], compromise_order_[pick.uniform_index(i)]);
    }
    faulty.assign(n_nodes, false);
    const auto initially_faulty =
        static_cast<std::size_t>(initial_pct * static_cast<double>(n_nodes) + 0.5);
    for (std::size_t i = 0; i < initially_faulty && i < n_nodes; ++i) {
        faulty[compromise_order_[i]] = true;
    }
}

void RunHarness::raise_compromised(double target_pct) {
    const std::size_t n_nodes = compromise_order_.size();
    const auto target = static_cast<std::size_t>(target_pct * static_cast<double>(n_nodes) + 0.5);
    for (std::size_t i = 0; i < target && i < n_nodes; ++i) {
        const std::size_t idx = compromise_order_[i];
        if (faulty[idx]) continue;
        faulty[idx] = true;
        nodes[idx]->set_behavior(behavior(true));
    }
}

sensor::SensorNode& RunHarness::add_node(util::Vec2 position, double sensing_radius,
                                         double radio_range, bool binary_mode) {
    const std::size_t i = nodes.size();
    const auto id = static_cast<sim::ProcessId>(i);
    auto node = std::make_unique<sensor::SensorNode>(simulator, id, position, sensing_radius,
                                                     net::Radio(channel, id), behavior(faulty[i]),
                                                     root.stream("node", i), trust);
    node->set_binary_mode(binary_mode);
    channel.attach(*node, position, radio_range);
    nodes.push_back(std::move(node));
    return *nodes.back();
}

cluster::ClusterHead& RunHarness::add_head(sim::ProcessId id, const core::EngineConfig& cfg,
                                           const std::vector<util::Vec2>& topology,
                                           util::Vec2 position, double radio_range,
                                           bool binary_mode) {
    heads.push_back(
        std::make_unique<cluster::ClusterHead>(simulator, id, net::Radio(channel, id), cfg));
    cluster::ClusterHead& head = *heads.back();
    head.set_recorder(rec);
    head.set_binary_mode(binary_mode);
    head.set_topology(topology);
    head.on_decision([this](const cluster::DecisionRecord& r) { decisions.push_back(r); });
    channel.attach(head, position, radio_range);
    channel.set_drop_probability(id, 0.0);
    return head;
}

void RunHarness::check_engines(const core::EngineConfig& cfg) {
    if (scenario.check.mode == check::Mode::Off) return;
    const bool abort = scenario.check.mode == check::Mode::Assert;
    check_scope_.emplace(abort ? util::InvariantAction::Throw : util::InvariantAction::Count);
    for (auto& h : heads) {
        shadows_.push_back(std::make_unique<check::ShadowArbiter>(cfg, abort));
        h->engine().set_checker(shadows_.back().get());
    }
}

void RunHarness::rebuild_routes(const std::vector<util::Vec2>& positions, double node_range,
                                double head_range) {
    std::vector<net::RouterEntry> entries;
    for (std::size_t i = 0; i < positions.size(); ++i) {
        entries.push_back({static_cast<sim::ProcessId>(i), positions[i], node_range});
    }
    for (const auto& h : heads) {
        entries.push_back({h->id(), channel.position(h->id()), head_range});
    }
    routes.rebuild(std::move(entries));
}

void RunHarness::build_relay(const std::vector<util::Vec2>& positions, double node_range,
                             double head_range) {
    rebuild_routes(positions, node_range, head_range);
    for (auto& n : nodes) n->enable_relay(&routes, scenario.transport);
    for (auto& h : heads) h->enable_relay(&routes, scenario.transport);
}

void RunHarness::connect_generator() {
    std::vector<sensor::SensorNode*> raw;
    raw.reserve(nodes.size());
    for (auto& n : nodes) raw.push_back(n.get());
    generator.set_nodes(std::move(raw));
    if (!rec) return;
    generator.on_event([r = rec](const sensor::GeneratedEvent& ev) {
        if (!r->trace().enabled()) return;
        r->trace().append(ev.time,
                          obs::EventInjected{ev.id, ev.location.x, ev.location.y,
                                             static_cast<std::uint32_t>(
                                                 ev.event_neighbours.size())});
    });
}

void RunHarness::schedule_campaign() {
    if (!campaign) return;
    campaign->on_compromise(
        [this](const inject::CompromiseOnset& onset) { raise_compromised(onset.target_pct); });
    campaign->on_fault_shift([this](const inject::FaultRateShift& shift) {
        if (shift.missed_alarm_rate >= 0.0) faults.missed_alarm_rate = shift.missed_alarm_rate;
        if (shift.false_alarm_rate >= 0.0) faults.false_alarm_rate = shift.false_alarm_rate;
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            if (faulty[i]) nodes[i]->set_behavior(behavior(true));
        }
    });
    campaign->schedule();
}

RunHarness::TrustSplit RunHarness::trust_split(const core::TrustManager& tm) const {
    double sum_c = 0.0, sum_f = 0.0;
    std::size_t n_c = 0, n_f = 0;
    for (std::size_t i = 0; i < faulty.size(); ++i) {
        const double ti = tm.ti(static_cast<core::NodeId>(i));
        if (faulty[i]) {
            sum_f += ti;
            ++n_f;
        } else {
            sum_c += ti;
            ++n_c;
        }
    }
    TrustSplit split;
    split.correct = n_c ? sum_c / static_cast<double>(n_c) : 1.0;
    split.faulty = n_f ? sum_f / static_cast<double>(n_f) : 1.0;
    const std::size_t n_all = n_c + n_f;
    split.all = n_all ? (sum_c + sum_f) / static_cast<double>(n_all) : 1.0;
    return split;
}

std::size_t RunHarness::checked_decisions() const {
    std::size_t n = 0;
    for (const auto& s : shadows_) n += s->decisions_checked();
    return n;
}

std::size_t RunHarness::oracle_divergences() const {
    std::size_t n = 0;
    for (const auto& s : shadows_) n += s->divergences();
    return n;
}

void RunHarness::export_tallies() const {
    if (!rec) return;
    auto& reg = rec->metrics();
    const auto add = [&reg](const char* name, std::size_t n) { reg.counter(name).inc(n); };
    add(obs::metric::kChannelDelivered, channel.delivered());
    add(obs::metric::kChannelDropped, channel.dropped());
    add(obs::metric::kChannelOutOfRange, channel.out_of_range());
    add(obs::metric::kChannelCollisions, channel.collisions());
    // Injection-free artifacts keep their shape: no injected_* names.
    if (channel.fault_schedule_armed()) {
        add(obs::metric::kInjectedDrops, channel.injected_drops());
        add(obs::metric::kInjectedDuplicates, channel.injected_duplicates());
        add(obs::metric::kInjectedDelays, channel.injected_delays());
        add(obs::metric::kInjectedReorders, channel.injected_reorders());
    }
    const auto add_transport = [&add](const net::ReliableTransport* t) {
        if (!t) return;
        add(obs::metric::kTransportOriginated, t->originated());
        add(obs::metric::kTransportForwarded, t->forwarded());
        add(obs::metric::kTransportRetransmissions, t->retransmissions());
        add(obs::metric::kTransportGaveUp, t->gave_up());
        add(obs::metric::kTransportDuplicates, t->duplicates_suppressed());
    };
    for (const auto& n : nodes) add_transport(n->transport());
    for (const auto& h : heads) {
        add_transport(h->transport());
        add(obs::metric::kClusterReportsReceived, h->reports_received());
        add(obs::metric::kClusterWindowsOpened, h->windows_opened());
        add(obs::metric::kClusterDecisions, h->decisions_announced());
        add(obs::metric::kClusterEventsDeclared, h->events_declared());
    }
    // Likewise, check.* names appear only in runs with oracles attached.
    if (!shadows_.empty()) {
        add(obs::metric::kCheckDecisionsChecked, checked_decisions());
        add(obs::metric::kCheckDivergences, oracle_divergences());
    }
}

void RunHarness::record_outcome(double accuracy, std::size_t events, std::size_t detected,
                                const TrustSplit& ti) const {
    if (!rec) return;
    export_tallies();
    auto& reg = rec->metrics();
    reg.counter(obs::metric::kSimEventsExecuted).inc(simulator.executed());
    reg.gauge(obs::metric::kSimQueueHighWater)
        .set_max(static_cast<double>(simulator.queue_high_water()));
    reg.gauge(obs::metric::kExpAccuracy).set(accuracy);
    reg.gauge(obs::metric::kExpEvents).set(static_cast<double>(events));
    reg.gauge(obs::metric::kExpDetected).set(static_cast<double>(detected));
    reg.gauge(obs::metric::kExpMeanTi).set(ti.all);
    reg.gauge(obs::metric::kExpMeanTiCorrect).set(ti.correct);
    reg.gauge(obs::metric::kExpMeanTiFaulty).set(ti.faulty);
    if (campaign) {
        std::size_t degraded = 0;
        for (const auto& d : decisions) degraded += scenario.campaign.degraded_at(d.time) ? 1 : 0;
        reg.counter(obs::metric::kInjectDecisionsDegraded).inc(degraded);
    }
}

}  // namespace tibfit::exp::detail
