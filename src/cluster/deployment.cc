#include "cluster/deployment.h"

#include <stdexcept>

namespace tibfit::cluster {

namespace {
/// Radios cover the whole field plus the base station.
constexpr double kRange = 400.0;
/// How long nodes listen for CH advertisements before affiliating.
constexpr double kAffiliationWindow = 0.5;
}  // namespace

Deployment::Deployment(sim::Simulator& sim, util::Rng rng, DeploymentConfig config,
                       std::vector<util::Vec2> positions,
                       std::vector<std::unique_ptr<sensor::FaultBehavior>> behaviors)
    : sim_(&sim), rng_(rng), config_(config), positions_(std::move(positions)) {
    if (positions_.size() != behaviors.size()) {
        throw std::invalid_argument("Deployment: positions/behaviors size mismatch");
    }
    const std::size_t n = positions_.size();

    net::ChannelParams cp;
    cp.drop_probability = config_.channel_drop;
    channel_ = std::make_unique<net::Channel>(sim, rng_.stream("channel"), cp);

    config_.engine.sensing_radius = config_.sensing_radius;

    // Sensing nodes: ids 0..n-1.
    for (std::size_t i = 0; i < n; ++i) {
        auto node = std::make_unique<sensor::SensorNode>(
            sim, static_cast<sim::ProcessId>(i), positions_[i], config_.sensing_radius,
            net::Radio(*channel_, static_cast<sim::ProcessId>(i)), std::move(behaviors[i]),
            rng_.stream("node", i), config_.engine.trust);
        node->set_binary_mode(false);
        channel_->attach(*node, positions_[i], kRange);
        nodes_.push_back(std::move(node));
    }

    // Co-located CH roles: ids n..2n-1, one per node, initially inactive.
    const auto bs_id = static_cast<sim::ProcessId>(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto id = host_id(static_cast<sim::ProcessId>(i));
        auto host = std::make_unique<ClusterHead>(sim, id, net::Radio(*channel_, id),
                                                  config_.engine);
        host->set_binary_mode(false);
        host->set_topology(positions_);
        host->set_base_station(bs_id);
        host->set_active(false);
        host->on_decision([this](const DecisionRecord& r) { decisions_.push_back(r); });
        channel_->attach(*host, positions_[i], kRange);
        channel_->set_drop_probability(id, 0.0);  // CH control traffic is reliable
        hosts_.push_back(std::move(host));
    }

    station_ = std::make_unique<BaseStation>(sim, bs_id, net::Radio(*channel_, bs_id),
                                             config_.engine.trust);
    channel_->attach(*station_, {config_.field / 2.0, config_.field + 20.0}, kRange);
    channel_->set_drop_probability(bs_id, 0.0);

    generator_ = std::make_unique<sensor::EventGenerator>(sim, rng_.stream("events"),
                                                          config_.field, config_.field);
    std::vector<sensor::SensorNode*> raw;
    raw.reserve(n);
    for (auto& nd : nodes_) raw.push_back(nd.get());
    generator_->set_nodes(std::move(raw));

    election_ = std::make_unique<LeachElection>(config_.leach, rng_.stream("election"));
    batteries_.assign(n, Battery(config_.initial_energy));
    reports_billed_.assign(n, 0);
}

Deployment::~Deployment() = default;

sim::ProcessId Deployment::host_id(sim::ProcessId node) const {
    return static_cast<sim::ProcessId>(nodes_.size() + node);
}

double Deployment::battery_fraction(sim::ProcessId node) const {
    return batteries_.at(node).fraction();
}

std::size_t Deployment::alive_nodes() const {
    std::size_t alive = 0;
    for (const auto& b : batteries_) alive += b.depleted() ? 0 : 1;
    return alive;
}

void Deployment::start(double until) {
    until_ = until;
    sim_->schedule(0.0, [this] { run_round(); });
}

void Deployment::bill_energy() {
    // Members pay per report transmitted since the last bill; active heads
    // pay reception for those reports plus one aggregate uplink.
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const std::size_t sent = nodes_[i]->reports_sent();
        const std::size_t fresh = sent - reports_billed_[i];
        reports_billed_[i] = sent;
        if (fresh == 0) continue;
        const sim::ProcessId head = nodes_[i]->cluster_head();
        double dist = 30.0;
        if (head != sim::kNoProcess && head >= nodes_.size() &&
            head < 2 * nodes_.size()) {
            dist = util::distance(positions_[i], positions_[head - nodes_.size()]);
        }
        batteries_[i].consume(static_cast<double>(fresh) *
                              tx_cost(config_.energy, config_.report_bits, dist));
        if (head != sim::kNoProcess && head >= nodes_.size() && head < 2 * nodes_.size()) {
            batteries_[head - nodes_.size()].consume(
                static_cast<double>(fresh) * rx_cost(config_.energy, config_.report_bits));
        }
    }
    for (sim::ProcessId h : active_heads_) {
        batteries_[h].consume(
            tx_cost(config_.energy, config_.uplink_bits, config_.uplink_distance));
    }
}

void Deployment::run_round() {
    bill_energy();

    // Retire the previous heads (their trust tables go to the archive).
    for (sim::ProcessId h : active_heads_) hosts_[h]->end_leadership();
    active_heads_.clear();

    // Candidates: alive nodes, judged by archive trust + battery.
    std::vector<Candidate> candidates;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (batteries_[i].depleted()) continue;
        Candidate c;
        c.id = static_cast<sim::ProcessId>(i);
        c.position = positions_[i];
        c.energy_fraction = batteries_[i].fraction();
        c.ti = station_->archive().ti(static_cast<core::NodeId>(i));
        candidates.push_back(c);
    }

    RoundRecord rec;
    rec.round = round_;
    rec.alive = candidates.size();
    if (!candidates.empty()) {
        // The election itself is local knowledge (each node flips its own
        // LEACH coin); cluster formation happens over the air: the new
        // heads broadcast advertisements, the other nodes collect them for
        // an affiliation window and join the strongest signal.
        const auto result = election_->run_round(round_, candidates);
        rec.heads = result.heads;
        rec.drafted = result.drafted;

        std::vector<bool> is_head(nodes_.size(), false);
        for (const sim::ProcessId h : result.heads) {
            is_head[h] = true;
            hosts_[h]->set_active(true);
            hosts_[h]->advertise(round_, static_cast<core::NodeId>(h));
            // A head's own sensor reports to its co-located CH role.
            nodes_[h]->set_cluster_head(host_id(h));
            // Fetch the archive shortly after the retiring heads' deposits
            // have reached the base station.
            ClusterHead* host = hosts_[h].get();
            sim_->schedule(0.05, [host] { host->request_archive(); });
            active_heads_.push_back(h);
        }
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            if (is_head[i] || batteries_[i].depleted()) continue;
            nodes_[i]->begin_affiliation(kAffiliationWindow);
        }
    }
    // Depleted nodes fall silent.
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (batteries_[i].depleted()) nodes_[i]->set_cluster_head(sim::kNoProcess);
    }
    rounds_.push_back(std::move(rec));
    ++round_;

    if (sim_->now() + config_.round_duration < until_) {
        sim_->schedule(config_.round_duration, [this] { run_round(); });
    }
}

}  // namespace tibfit::cluster
