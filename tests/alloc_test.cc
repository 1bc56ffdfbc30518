// Allocation guard for the decision path: runs two of the benchmark's
// workloads with a counting global operator new and bounds the heap
// allocations a run makes per announced decision. Each announced decision
// needs a few blocks it hands away (its judgement lists travel in the
// broadcast body); everything a decision builds and throws away comes from
// reused buffers instead.
//
// The executable replaces the global allocation functions, so it holds this
// test alone.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>

#include "exp/binary_experiment.h"
#include "exp/location_experiment.h"
#include "exp/scenario.h"
#include "obs/names.h"
#include "obs/recorder.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(al);
    // aligned_alloc wants a non-zero multiple of the alignment.
    const std::size_t size = n == 0 ? a : (n + a - 1) / a * a;
    if (void* p = std::aligned_alloc(a, size)) return p;
    throw std::bad_alloc();
}

}  // namespace

// Every replaceable form, the nothrow ones included (std::stable_sort takes
// its buffer through those), so that no block crosses between this pair
// and the library's.
void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) { return counted_aligned_alloc(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return counted_aligned_alloc(n, al); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
    return ::operator new(n, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using tibfit::exp::Scenario;

Scenario load_workload(const std::string& name) {
    const std::filesystem::path path = std::filesystem::path(TIBFIT_SOURCE_DIR) / "tibbench" /
                                       "workloads" / (name + ".json");
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return tibfit::exp::scenario_from_json_text(os.str());
}

void run(const Scenario& s) {
    if (s.kind == Scenario::Kind::Binary) {
        (void)tibfit::exp::run_binary_experiment(s);
    } else {
        (void)tibfit::exp::run_location_experiment(s);
    }
}

/// Heap allocations per announced decision of one run of `s`. The
/// decisions are counted in a second, recorded run of the same scenario,
/// so the counted run carries no instrumentation.
double allocations_per_decision(const Scenario& s) {
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    run(s);
    const std::size_t allocations = g_allocations.load(std::memory_order_relaxed) - before;

    tibfit::obs::Recorder recorder;
    Scenario traced = s;
    traced.recorder = &recorder;
    run(traced);
    const auto* decisions =
        recorder.metrics().find_counter(tibfit::obs::metric::kClusterDecisions);
    EXPECT_NE(decisions, nullptr);
    if (!decisions || decisions->value() == 0) return 0.0;
    const double per = static_cast<double>(allocations) / static_cast<double>(decisions->value());
    std::printf("[ alloc    ] %zu allocations, %llu decisions: %.2f per decision\n", allocations,
                static_cast<unsigned long long>(decisions->value()), per);
    return per;
}

// 1000 events span t = 0..10000, so the run crosses the workload's
// degradation window (from t = 4000) and its CH failover (t = 8000):
// retransmissions, duplicates and the warm handoff are all counted.
TEST(AllocTest, BinaryFailoverStaysUnderFivePerDecision) {
    Scenario s = load_workload("binary_failover");
    s.binary.events = 1000;
    EXPECT_LE(allocations_per_decision(s), 5.0);
}

TEST(AllocTest, Fig4FanoutStaysUnderTwentyTwoPerDecision) {
    Scenario s = load_workload("fig4_fanout");
    s.location.events = 100;
    EXPECT_LE(allocations_per_decision(s), 22.0);
}

}  // namespace
