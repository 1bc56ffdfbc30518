// Figure 10 — expected accuracy of the stateless baseline voter as the
// fraction of faulty event neighbours grows (Section 5, equations 1-3).
// N = 10 event neighbours, faulty nodes report correctly with q = 0.5,
// correct nodes with p in {0.99, 0.95, 0.90, 0.85}.
#include <cstdint>

#include "analysis/baseline_model.h"
#include "exp/bench_io.h"
#include "util/table.h"

int main(int argc, char** argv) {
    using tibfit::analysis::baseline_success;
    using tibfit::util::Table;
    tibfit::exp::BenchIo io("bench_fig10", argc, argv);
    io.apply();

    constexpr std::uint64_t kN = 10;
    constexpr double kQ = 0.5;
    const double ps[] = {0.99, 0.95, 0.90, 0.85};

    Table t("Figure 10: analytical baseline accuracy vs % faulty (N=10, q=0.5)");
    t.header({"% faulty", "p=0.99", "p=0.95", "p=0.90", "p=0.85"});
    for (std::uint64_t m = 0; m <= kN; ++m) {
        std::vector<double> row;
        row.push_back(100.0 * static_cast<double>(m) / static_cast<double>(kN));
        for (double p : ps) row.push_back(baseline_success(kN, m, p, kQ));
        t.row_values(row, 4);
    }
    io.emit(t);
    // Pure closed-form bench: the artifact's metrics come from finish()'s
    // small default run.
    return io.finish();
}
