// Microbenchmarks of the protocol hot paths (google-benchmark): trust
// updates, CTI votes, the event clusterer, the concurrent-window manager,
// and a whole simulated event pipeline. These gauge whether the protocol
// is cheap enough for a CH-class device (the paper's motes run far less).
#include <benchmark/benchmark.h>

#include <string_view>
#include <vector>

#include "core/binary_arbiter.h"
#include "core/decision_engine.h"
#include "core/event_clusterer.h"
#include "exp/bench_io.h"
#include "exp/binary_experiment.h"
#include "util/rng.h"

namespace {

using namespace tibfit;

void BM_TrustUpdate(benchmark::State& state) {
    core::TrustParams p;
    core::TrustManager tm(p);
    core::NodeId n = 0;
    for (auto _ : state) {
        tm.judge_faulty(n);
        tm.judge_correct(n);
        n = (n + 1) % 100;
    }
    benchmark::DoNotOptimize(tm.ti(0));
}
BENCHMARK(BM_TrustUpdate);

void BM_CumulativeTi(benchmark::State& state) {
    core::TrustManager tm{core::TrustParams{}};
    std::vector<core::NodeId> nodes;
    for (core::NodeId n = 0; n < state.range(0); ++n) {
        nodes.push_back(n);
        tm.judge_faulty(n);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(tm.cumulative_ti(nodes));
    }
}
BENCHMARK(BM_CumulativeTi)->Arg(10)->Arg(100)->Arg(1000);

void BM_BinaryVote(benchmark::State& state) {
    core::TrustManager tm{core::TrustParams{}};
    core::BinaryArbiter arb(tm, core::DecisionPolicy::TrustIndex);
    const auto n = static_cast<core::NodeId>(state.range(0));
    std::vector<core::NodeId> all, reporters;
    for (core::NodeId i = 0; i < n; ++i) {
        all.push_back(i);
        if (i % 2 == 0) reporters.push_back(i);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(arb.decide(all, reporters, /*apply=*/true));
    }
}
BENCHMARK(BM_BinaryVote)->Arg(10)->Arg(100);

void BM_EventClusterer(benchmark::State& state) {
    core::EventClusterer clusterer(5.0);
    util::Rng rng(7);
    // A realistic window: a few events' worth of noisy reports on the field.
    std::vector<util::Vec2> pts;
    for (int e = 0; e < state.range(0); ++e) {
        const util::Vec2 c = rng.point_in_rect(100, 100);
        for (int i = 0; i < 12; ++i) pts.push_back(c + rng.gaussian_offset(2.0));
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(clusterer.cluster(pts));
    }
    state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(pts.size()));
}
BENCHMARK(BM_EventClusterer)->Arg(1)->Arg(2)->Arg(5);

void BM_LocationDecision(benchmark::State& state) {
    core::EngineConfig cfg;
    util::Rng rng(11);
    std::vector<util::Vec2> positions;
    for (int i = 0; i < 100; ++i) positions.push_back(rng.point_in_rect(100, 100));
    const util::Vec2 event{50, 50};
    std::vector<core::EventReport> reports;
    core::NodeId id = 0;
    for (const auto& p : positions) {
        if (util::distance(p, event) <= cfg.sensing_radius) {
            core::EventReport r;
            r.reporter = id;
            r.time = 0.0;
            r.location = event + rng.gaussian_offset(1.6);
            reports.push_back(r);
        }
        ++id;
    }
    core::DecisionEngine engine(cfg);
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.decide_location(reports, positions, /*apply=*/true));
    }
}
BENCHMARK(BM_LocationDecision);

void BM_WholeBinaryExperiment(benchmark::State& state) {
    exp::Scenario c = exp::Scenario::binary_defaults();
    c.binary.events = 50;
    c.binary.pct_faulty = 0.5;
    c.channel.drop_probability = 0.0;
    for (auto _ : state) {
        c.seed = static_cast<std::uint64_t>(state.iterations()) + 1;
        benchmark::DoNotOptimize(exp::run_binary_experiment(c));
    }
    state.SetItemsProcessed(state.iterations() * c.binary.events);
}
BENCHMARK(BM_WholeBinaryExperiment)->Unit(benchmark::kMillisecond);

}  // namespace

// Hand-rolled BENCHMARK_MAIN: the artifact flags (--json/--csv) must be
// peeled off before google-benchmark sees argv, or it rejects them as
// unrecognized.
int main(int argc, char** argv) {
    std::vector<char*> gb_args{argv[0]};
    std::vector<char*> io_args{argv[0]};
    for (int i = 1; i < argc; ++i) {
        const std::string_view a(argv[i]);
        if (a == "--json" && i + 1 < argc) {
            io_args.push_back(argv[i]);
            io_args.push_back(argv[++i]);
        } else if (a.rfind("--json=", 0) == 0 || a == "--csv") {
            io_args.push_back(argv[i]);
        } else {
            gb_args.push_back(argv[i]);
        }
    }
    int gb_argc = static_cast<int>(gb_args.size());
    benchmark::Initialize(&gb_argc, gb_args.data());
    if (benchmark::ReportUnrecognizedArguments(gb_argc, gb_args.data())) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    tibfit::exp::BenchIo io("bench_micro", static_cast<int>(io_args.size()), io_args.data());
    return io.finish();
}
