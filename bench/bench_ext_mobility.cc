// Extension bench — mobile networks (Section 2: "The network could be
// stationary or mobile, as long as it is possible for the CH to estimate
// the positions of its cluster nodes during decision making").
//
// Nodes follow a random-waypoint walk; the CHs refresh their position
// estimates every mobility tick. Faster motion means staler estimates
// inside a T_out window, so accuracy degrades gracefully with speed.
#include <vector>

#include "exp/bench_io.h"
#include "exp/sweep.h"
#include "util/table.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_ext_mobility", argc, argv);

    exp::Scenario base = exp::Scenario::location_defaults();
    base.location.fault_level = sensor::NodeClass::Level0;
    base.location.events = 200;
    base.seed = 20050628;
    const std::size_t runs = io.trial_runs(5);
    io.apply(base);

    const std::vector<double> pct = {0.10, 0.30, 0.50};

    util::Table t("Extension: stationary vs mobile network (level 0, TIBFIT)");
    t.header({"% faulty", "stationary", "mobile 0.5-1.5 u/s", "mobile 2-4 u/s"});
    for (double p : pct) {
        exp::Scenario c = base;
        c.location.pct_faulty = p;
        const double stationary = exp::mean_accuracy(c, runs);
        c.location.mobile = true;
        const double slow = exp::mean_accuracy(c, runs);
        c.mobility.speed_min = 2.0;
        c.mobility.speed_max = 4.0;
        t.row_values({100.0 * p, stationary, slow, exp::mean_accuracy(c, runs)}, 3);
    }
    io.emit(t);
    exp::Scenario representative = base;
    representative.location.pct_faulty = 0.3;
    representative.location.mobile = true;
    return io.finish(representative);
}
