// Extension bench — unreliable cluster heads (Section 3.4).
//
// "No nodes are considered immune to failure, whether they are sensing
// nodes or the data sink." Here the data sink itself is corrupt: the CH
// announces the opposite of every conclusion its engine reaches. Without
// shadows the cluster's output is garbage; with two shadow cluster heads
// overhearing the CH's traffic and a base station voting 2-vs-1, every
// corrupt announcement is masked and accuracy returns to the honest level
// — the paper's "only a single CH failure can be tolerated" in action.
#include <vector>

#include "exp/bench_io.h"
#include "exp/sweep.h"
#include "util/table.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_ext_sch", argc, argv);

    exp::Scenario base = exp::Scenario::binary_defaults();
    base.binary.n_nodes = 10;
    base.binary.events = 100;
    base.engine.trust.lambda = 0.1;
    base.faults.missed_alarm_rate = 0.5;
    base.channel.drop_probability = 0.0;
    base.seed = 20050628;
    const std::size_t runs = io.trial_runs(10);
    io.apply(base);

    const std::vector<double> pct = {0.40, 0.60, 0.80};

    util::Table t("Extension: corrupt cluster head masked by shadow CHs + base station vote");
    t.header({"% faulty nodes", "honest CH", "corrupt CH, no shadows",
              "corrupt CH + shadows"});
    for (double p : pct) {
        exp::Scenario c = base;
        c.binary.pct_faulty = p;
        const double honest = exp::mean_accuracy(c, runs);
        c.binary.corrupt_ch = true;
        const double corrupt = exp::mean_accuracy(c, runs);
        c.binary.use_shadows = true;
        t.row_values({100.0 * p, honest, corrupt, exp::mean_accuracy(c, runs)}, 3);
    }
    io.emit(t);
    exp::Scenario representative = base;
    representative.binary.pct_faulty = 0.6;
    representative.binary.corrupt_ch = true;
    representative.binary.use_shadows = true;
    return io.finish(representative);
}
