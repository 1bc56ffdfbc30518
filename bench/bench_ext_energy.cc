// Extension bench — network lifetime under CH rotation (the reason the
// paper adopts LEACH: "These properties help spread energy usage equally
// throughout the network").
//
// A self-organizing deployment runs on small batteries until most of the
// network dies. Rotating leadership (higher ch_fraction = shorter average
// leaderships per node) spreads the expensive CH duty; the table reports
// when the first node dies and when half the network is gone, plus how
// evenly the duty was spread (leaderships served, min..max across nodes).
#include <algorithm>
#include <map>
#include <vector>

#include "exp/bench_io.h"
#include "exp/deployment.h"
#include "util/table.h"

namespace {

using namespace tibfit;

struct Lifetime {
    std::size_t first_death_round = 0;
    std::size_t half_dead_round = 0;
    std::size_t min_led = 0;
    std::size_t max_led = 0;
};

Lifetime run(double ch_fraction, std::uint64_t seed) {
    exp::Scenario s = exp::Scenario::location_defaults();
    s.faults.natural_error_rate = 0.01;  // FaultParams' default; the location defaults zero it
    s.seed = seed;
    exp::DeploymentConfig cfg;
    cfg.round_duration = 60.0;
    cfg.leach.ch_fraction = ch_fraction;
    cfg.initial_energy = 0.05;  // starvation budget so lifetimes are visible

    std::vector<util::Vec2> positions;
    for (int i = 0; i < 64; ++i) {
        positions.push_back({6.25 + 12.5 * (i % 8), 6.25 + 12.5 * (i / 8)});
    }
    const std::size_t n = positions.size();

    exp::Deployment net(s, cfg, std::move(positions), std::vector<bool>(n, false));
    const std::size_t rounds = 220;
    net.generator().schedule_events(rounds * 6, 10.0, 5.0);
    net.run(cfg.round_duration * static_cast<double>(rounds));

    Lifetime life;
    std::map<sim::ProcessId, std::size_t> led;
    for (const auto& r : net.rounds()) {
        for (auto h : r.heads) ++led[h];
        if (life.first_death_round == 0 && r.alive < n) {
            life.first_death_round = r.round;
        }
        if (life.half_dead_round == 0 && r.alive <= n / 2) {
            life.half_dead_round = r.round;
        }
    }
    if (life.first_death_round == 0) life.first_death_round = rounds;
    if (life.half_dead_round == 0) life.half_dead_round = rounds;
    life.min_led = n;
    for (const auto& [id, count] : led) {
        (void)id;
        life.min_led = std::min(life.min_led, count);
        life.max_led = std::max(life.max_led, count);
    }
    if (led.size() < n) life.min_led = 0;  // someone never led
    return life;
}

}  // namespace

int main(int argc, char** argv) {
    tibfit::exp::BenchIo io("bench_ext_energy", argc, argv);
    io.apply();
    tibfit::util::Table t(
        "Extension: network lifetime vs CH rotation aggressiveness (64 nodes, 0.05 J)");
    t.header({"ch_fraction", "first death (round)", "half dead (round)",
              "leaderships min..max"});
    for (double f : {0.03, 0.08, 0.15, 0.30}) {
        const auto life = run(f, 20050628);
        t.row({tibfit::util::Table::num(f, 2), std::to_string(life.first_death_round),
               std::to_string(life.half_dead_round),
               std::to_string(life.min_led) + ".." + std::to_string(life.max_led)});
    }
    io.emit(t);
    // The lifetime harness drives a Deployment directly; the artifact's
    // metrics come from finish()'s small default run.
    return io.finish();
}
