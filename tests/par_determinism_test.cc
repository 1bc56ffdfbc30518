// The machine-checkable contract of the parallel trial scheduler: every
// sweep aggregate — means, epoch series, merged metrics registries, merged
// traces — is bit-identical whatever --jobs is set to.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "exp/sweep.h"
#include "obs/json.h"
#include "obs/recorder.h"
#include "par/jobs.h"
#include "util/rng.h"

namespace tibfit::exp {
namespace {

class JobsGuard {
  public:
    JobsGuard() = default;
    ~JobsGuard() { par::set_jobs(0); }
};

Scenario small_binary() {
    Scenario c = Scenario::binary_defaults();
    c.binary.n_nodes = 10;
    c.binary.pct_faulty = 0.4;
    c.binary.events = 30;
    c.seed = 99;
    return c;
}

Scenario small_location() {
    Scenario c = Scenario::location_defaults();
    c.location.events = 40;
    c.location.pct_faulty = 0.3;
    c.seed = 20050628;
    return c;
}

std::string metrics_json(const obs::Recorder& rec) {
    std::ostringstream os;
    obs::json::Writer w(os, 2);
    rec.metrics().write_json(w);
    return os.str();
}

std::string trace_jsonl(const obs::Recorder& rec) {
    std::ostringstream os;
    rec.trace().write_jsonl(os);
    return os.str();
}

TEST(ParallelDeterminism, MeanBinaryAccuracyBitIdenticalAcrossJobs) {
    JobsGuard guard;
    par::set_jobs(1);
    const double serial = mean_accuracy(small_binary(), 12);
    for (std::size_t jobs : {2u, 8u}) {
        par::set_jobs(jobs);
        EXPECT_EQ(mean_accuracy(small_binary(), 12), serial) << "jobs=" << jobs;
    }
}

TEST(ParallelDeterminism, MeanLocationAccuracyBitIdenticalAcrossJobs) {
    JobsGuard guard;
    par::set_jobs(1);
    const double serial = mean_accuracy(small_location(), 6);
    for (std::size_t jobs : {2u, 8u}) {
        par::set_jobs(jobs);
        EXPECT_EQ(mean_accuracy(small_location(), 6), serial) << "jobs=" << jobs;
    }
}

TEST(ParallelDeterminism, EpochSeriesBitIdenticalAcrossJobs) {
    JobsGuard guard;
    Scenario c = small_location();
    c.location.events = 100;
    c.location.epoch_events = 25;
    par::set_jobs(1);
    const auto serial = mean_epoch_accuracy(c, 5);
    EXPECT_FALSE(serial.empty());
    for (std::size_t jobs : {2u, 8u}) {
        par::set_jobs(jobs);
        EXPECT_EQ(mean_epoch_accuracy(c, 5), serial) << "jobs=" << jobs;
    }
}

TEST(ParallelDeterminism, SweepBinaryBitIdenticalAcrossJobs) {
    JobsGuard guard;
    const auto sweep = [] {
        std::vector<double> accs;
        for (const double x : {0.2, 0.4, 0.6}) {
            Scenario c = small_binary();
            c.binary.pct_faulty = x;
            accs.push_back(mean_accuracy(c, 8));
        }
        return accs;
    };
    par::set_jobs(1);
    const auto serial = sweep();
    for (std::size_t jobs : {2u, 8u}) {
        par::set_jobs(jobs);
        EXPECT_EQ(sweep(), serial) << "jobs=" << jobs;
    }
}

TEST(ParallelDeterminism, SweepLocationBitIdenticalAcrossJobs) {
    JobsGuard guard;
    const auto sweep = [] {
        std::vector<double> accs;
        for (const double x : {0.1, 0.5}) {
            Scenario c = small_location();
            c.location.pct_faulty = x;
            accs.push_back(mean_accuracy(c, 4));
        }
        return accs;
    };
    par::set_jobs(1);
    const auto serial = sweep();
    par::set_jobs(8);
    EXPECT_EQ(sweep(), serial);
}

TEST(ParallelDeterminism, MergedMetricsJsonBitIdenticalAcrossJobs) {
    JobsGuard guard;
    auto run = [](std::size_t jobs) {
        par::set_jobs(jobs);
        obs::Recorder rec;
        Scenario c = small_binary();
        c.recorder = &rec;
        mean_accuracy(c, 10);
        return metrics_json(rec);
    };
    const std::string serial = run(1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(run(2), serial);
    EXPECT_EQ(run(8), serial);
}

TEST(ParallelDeterminism, MergedTraceBitIdenticalAcrossJobs) {
    JobsGuard guard;
    auto run = [](std::size_t jobs) {
        par::set_jobs(jobs);
        obs::Recorder rec;
        rec.trace().set_enabled(true);
        Scenario c = small_location();
        c.recorder = &rec;
        mean_accuracy(c, 4);
        return trace_jsonl(rec);
    };
    const std::string serial = run(1);
    EXPECT_GT(serial.size(), 100u) << "trace should have recorded something";
    EXPECT_EQ(run(2), serial);
    EXPECT_EQ(run(8), serial);
}

TEST(ParallelDeterminism, MergedRegistryMatchesSharedSerialRegistry) {
    // The per-trial-registry + ordered-merge path must reproduce what the
    // old serial loop produced by threading ONE shared registry through
    // every run: counters sum, histograms combine, last-write gauges keep
    // the last trial's value.
    JobsGuard guard;
    par::set_jobs(1);

    obs::Recorder merged;
    {
        Scenario c = small_binary();
        c.recorder = &merged;
        mean_accuracy(c, 5);
    }

    obs::Recorder shared;
    {
        for (std::size_t r = 0; r < 5; ++r) {
            Scenario c = small_binary();
            c.seed = util::derive_trial_seed(small_binary().seed, r);
            c.recorder = &shared;
            run_binary_experiment(c);
        }
    }

    obs::MemorySink a, b;
    merged.metrics().emit(a);
    shared.metrics().emit(b);
    EXPECT_EQ(a.counters, b.counters);
    EXPECT_EQ(a.gauges, b.gauges);
    EXPECT_EQ(a.histogram_counts, b.histogram_counts);
}

}  // namespace
}  // namespace tibfit::exp
