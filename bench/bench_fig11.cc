// Figure 11 — variation of the corruption-spacing margin f(k) with lambda
// (Section 5). f(k) = e^{-k*lambda*(N-1)} - 2e^{-k*lambda} + 1 for N = 10;
// where a curve crosses zero is the minimum number of events k between
// successive node corruptions that TIBFIT absorbs with 100% accuracy.
// Also prints the roots and k_max = ln(3)/lambda (the spacing needed to
// absorb the final tolerable failure).
#include <vector>

#include "analysis/ti_dynamics.h"
#include "exp/bench_io.h"
#include "util/table.h"

int main(int argc, char** argv) {
    using namespace tibfit;
    exp::BenchIo io("bench_fig11", argc, argv);
    io.apply();
    constexpr std::uint64_t kN = 10;
    const std::vector<double> lambdas = {0.05, 0.10, 0.25, 0.50};

    util::Table t("Figure 11: corruption margin f(k) vs k for several lambda (N=10)");
    t.header({"k", "lambda=0.05", "lambda=0.10", "lambda=0.25", "lambda=0.50"});
    for (double k = 0.0; k <= 30.0 + 1e-9; k += 2.0) {
        std::vector<double> row{k};
        for (double l : lambdas) row.push_back(analysis::corruption_margin(k, l, kN));
        t.row_values(row, 4);
    }
    io.emit(t);

    util::Table roots("Figure 11 roots: minimum tolerable corruption spacing");
    roots.header({"lambda", "root k (events)", "k_max = ln3/lambda"});
    for (double l : lambdas) {
        roots.row_values({l, analysis::min_tolerable_spacing(l, kN),
                          analysis::max_rounds_for_last_failure(l)},
                         3);
    }
    io.emit(roots);
    // Pure closed-form bench: the artifact's metrics come from finish()'s
    // small default run.
    return io.finish();
}
