#include "exp/deployment.h"

#include <memory>
#include <stdexcept>

namespace tibfit::exp {

namespace {
/// Radios cover the whole field plus the base station.
constexpr double kRange = 400.0;
/// How long nodes listen for CH advertisements before affiliating.
constexpr double kAffiliationWindow = 0.5;
/// How long after an event a decision still counts as detecting it.
constexpr double kDetectionWindow = 5.0;
}  // namespace

Deployment::Deployment(const Scenario& scenario, DeploymentConfig config,
                       std::vector<util::Vec2> positions, std::vector<bool> faulty)
    : scenario_(scenario),
      h_(scenario_),
      config_(config),
      positions_(std::move(positions)),
      station_(h_.simulator, static_cast<sim::ProcessId>(2 * positions_.size()),
               net::Radio(h_.channel, static_cast<sim::ProcessId>(2 * positions_.size())),
               h_.trust),
      election_(config_.leach, h_.root.stream("election")),
      batteries_(positions_.size(), cluster::Battery(config_.initial_energy)),
      reports_billed_(positions_.size(), 0) {
    if (positions_.size() != faulty.size()) {
        throw std::invalid_argument("Deployment: positions/faulty size mismatch");
    }
    if (scenario_.campaign.enabled()) {
        throw std::invalid_argument("Deployment: fault-injection campaigns are not supported");
    }
    const double field = scenario_.deployment.field;
    const double sensing_radius = scenario_.deployment.sensing_radius;

    // Sensing nodes: ids 0..n-1.
    h_.faulty = std::move(faulty);
    h_.behavior = [this](bool is_faulty) -> std::unique_ptr<sensor::FaultBehavior> {
        if (is_faulty) return std::make_unique<sensor::Level0Fault>(h_.faults, false);
        return std::make_unique<sensor::CorrectBehavior>(h_.faults);
    };
    for (const util::Vec2& p : positions_) {
        h_.add_node(p, sensing_radius, kRange, /*binary_mode=*/false);
    }

    // Co-located CH roles: ids n..2n-1, one per node, initially inactive;
    // the base station is 2n.
    core::EngineConfig engine = scenario_.engine;
    engine.sensing_radius = sensing_radius;
    engine.trust = h_.trust;
    for (std::size_t i = 0; i < positions_.size(); ++i) {
        cluster::ClusterHead& host =
            h_.add_head(host_id(static_cast<sim::ProcessId>(i)), engine, positions_,
                        positions_[i], kRange, /*binary_mode=*/false);
        host.set_base_station(station_.id());
        host.set_active(false);
    }
    h_.channel.attach(station_, {field / 2.0, field + 20.0}, kRange);
    h_.channel.set_drop_probability(station_.id(), 0.0);

    // Leadership hands the trust table between roles; each oracle resyncs
    // on adoption.
    h_.check_engines(engine);
    h_.connect_generator();
}

sim::ProcessId Deployment::host_id(sim::ProcessId node) const {
    return static_cast<sim::ProcessId>(positions_.size() + node);
}

double Deployment::battery_fraction(sim::ProcessId node) const {
    return batteries_.at(node).fraction();
}

std::size_t Deployment::alive_nodes() const {
    std::size_t alive = 0;
    for (const auto& b : batteries_) alive += b.depleted() ? 0 : 1;
    return alive;
}

std::size_t Deployment::detected_events() const {
    std::size_t detected = 0;
    for (const auto& ev : h_.generator.history()) {
        for (const auto& dec : h_.decisions) {
            if (!dec.event_declared || !dec.has_location) continue;
            if (dec.time < ev.time || dec.time > ev.time + kDetectionWindow) continue;
            if (util::distance(dec.location, ev.location) <= scenario_.engine.r_error) {
                ++detected;
                break;
            }
        }
    }
    return detected;
}

void Deployment::run(double until) {
    until_ = until;
    h_.simulator.schedule(0.0, [this] { run_round(); });
    h_.simulator.run();
}

void Deployment::bill_energy() {
    // Members pay per report transmitted since the last bill; active heads
    // pay reception for those reports plus one aggregate uplink.
    const std::size_t n = positions_.size();
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t sent = h_.nodes[i]->reports_sent();
        const std::size_t fresh = sent - reports_billed_[i];
        reports_billed_[i] = sent;
        if (fresh == 0) continue;
        const sim::ProcessId head = h_.nodes[i]->cluster_head();
        const bool at_host = head != sim::kNoProcess && head >= n && head < 2 * n;
        const double dist = at_host ? util::distance(positions_[i], positions_[head - n]) : 30.0;
        batteries_[i].consume(static_cast<double>(fresh) *
                              tx_cost(config_.energy, config_.report_bits, dist));
        if (at_host) {
            batteries_[head - n].consume(static_cast<double>(fresh) *
                                         rx_cost(config_.energy, config_.report_bits));
        }
    }
    for (sim::ProcessId h : active_heads_) {
        batteries_[h].consume(
            tx_cost(config_.energy, config_.uplink_bits, config_.uplink_distance));
    }
}

void Deployment::run_round() {
    bill_energy();
    const std::size_t n = positions_.size();

    // Retire the previous heads (their trust tables go to the archive).
    for (sim::ProcessId h : active_heads_) h_.heads[h]->end_leadership();
    active_heads_.clear();

    // Candidates: alive nodes, judged by archive trust + battery.
    std::vector<cluster::Candidate> candidates;
    for (std::size_t i = 0; i < n; ++i) {
        if (batteries_[i].depleted()) continue;
        cluster::Candidate c;
        c.id = static_cast<sim::ProcessId>(i);
        c.position = positions_[i];
        c.energy_fraction = batteries_[i].fraction();
        c.ti = station_.archive().ti(static_cast<core::NodeId>(i));
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
        const auto result = election_.run_round(round_, candidates);
        rec.heads = result.heads;
        rec.drafted = result.drafted;

        std::vector<bool> is_head(n, false);
        for (const sim::ProcessId h : result.heads) {
            is_head[h] = true;
            cluster::ClusterHead* host = h_.heads[h].get();
            host->set_active(true);
            host->advertise(round_, static_cast<core::NodeId>(h));
            // A head's own sensor reports to its co-located CH role.
            h_.nodes[h]->set_cluster_head(host_id(h));
            // Fetch the archive shortly after the retiring heads' deposits
            // have reached the base station.
            h_.simulator.schedule(0.05, [host] { host->request_archive(); });
            active_heads_.push_back(h);
        }
        for (std::size_t i = 0; i < n; ++i) {
            if (is_head[i] || batteries_[i].depleted()) continue;
            h_.nodes[i]->begin_affiliation(kAffiliationWindow);
        }
    }
    // Depleted nodes fall silent.
    for (std::size_t i = 0; i < n; ++i) {
        if (batteries_[i].depleted()) h_.nodes[i]->set_cluster_head(sim::kNoProcess);
    }
    rounds_.push_back(std::move(rec));
    ++round_;

    if (h_.simulator.now() + config_.round_duration < until_) {
        h_.simulator.schedule(config_.round_duration, [this] { run_round(); });
    }
}

}  // namespace tibfit::exp
