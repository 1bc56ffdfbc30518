// tibbench: runs one benchmark workload through the public entry points
// (exp::run_binary_experiment / exp::run_location_experiment and
// par::run_trials), checks the outputs, and prints every metric with its
// unit. The last line of stdout is the JSON result. tibbench/README.md
// describes the passes and the metrics.
//
//   tibbench --workload NAME --seed N --seconds S --trace 0|1
//            [--workload-dir DIR] [--out-dir DIR]
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/binary_experiment.h"
#include "exp/location_experiment.h"
#include "exp/scenario.h"
#include "obs/json.h"
#include "obs/names.h"
#include "obs/recorder.h"
#include "par/jobs.h"
#include "par/trial_runner.h"
#include "probes.h"
#include "reference.h"
#include "util/rng.h"

namespace {

using namespace tibfit;
using tibbench::Probe;
using tibbench::ProbeShape;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;
namespace metric = obs::metric;

/// Thread count of the sweep and traced passes. Fixed, so that
/// sweep_trials_per_s compares across hosts with at least this many cores.
constexpr std::size_t kSweepJobs = 2;
/// Set-up runs this many times per run; setup_s is the median.
constexpr std::size_t kSetupReps = 11;
/// The jobs-1 pass runs at least this many trials, budget or not.
constexpr std::size_t kMinTrials = 20;
/// Traced-pass seconds per untraced sweep second (obs.tracing_overhead);
/// only used to split the time budget between the passes.
constexpr double kTracedCost = 1.4;
/// Seconds of a --trace 1 run held back for the probes and check-off trials.
constexpr double kProbeReserve = 1.5;
/// Trials re-run with check.mode=off to measure check.overhead.
constexpr std::size_t kCheckPairs = 24;

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolation quantile of a non-empty sample.
double quantile(std::vector<double> v, double q) {
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// CPU seconds the calling thread has run. On a shared or virtual host it
/// leaves out the time the thread waited for a core, which wall time does not.
double thread_cpu_s() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Seconds one reference_kernel() call takes on the calling thread, on the
/// thread CPU clock or, with `wall`, on the wall clock.
double kernel_s(bool wall) {
    const auto w0 = Clock::now();
    const double c0 = thread_cpu_s();
    const double checksum = tibbench::reference_kernel();
    const double took = wall ? since(w0) : thread_cpu_s() - c0;
    if (!std::isfinite(checksum)) std::abort();  // uses the result; never taken
    return took;
}

/// A post-trial kernel run this much slower than the fastest one so far
/// marks the thread's CPU as contended.
constexpr double kContended = 1.15;

/// The CPUs the CpuHunters of one pass hold, so that no two share a CPU.
class CpuClaims {
  public:
    bool free_for(int cpu, const void* hunter) {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = held_.find(cpu);
        return it == held_.end() || it->second == hunter;
    }
    /// Drops `hunter`'s claim and claims `cpu` for it; false if taken.
    bool move(int cpu, const void* hunter) {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = held_.find(cpu);
        if (it != held_.end() && it->second != hunter) return false;
        std::erase_if(held_, [&](const auto& kv) { return kv.second == hunter; });
        held_[cpu] = hunter;
        return true;
    }

  private:
    std::mutex mu_;
    std::map<int, const void*> held_;
};

/// Keeps its thread on the fastest CPU it may use. On a shared host each
/// virtual CPU runs at full speed or markedly slower as other tenants'
/// work comes and goes, for seconds at a time. The thread runs the
/// reference kernel after every trial; when that reads contended, it runs
/// the kernel once on every allowed CPU (that no other hunter of the same
/// CpuClaims holds) and pins itself to the fastest. Destroyed on its own
/// thread, it lifts the pin.
class CpuHunter {
  public:
    explicit CpuHunter(bool wall, CpuClaims* claims = nullptr)
        : wall_(wall), claims_(claims), owner_(std::this_thread::get_id()) {
        CPU_ZERO(&allowed_);
        if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
        }
    }
    ~CpuHunter() {
        if (pinned_ >= 0 && std::this_thread::get_id() == owner_) {
            sched_setaffinity(0, sizeof allowed_, &allowed_);
        }
    }
    CpuHunter(const CpuHunter&) = delete;
    CpuHunter& operator=(const CpuHunter&) = delete;

    /// Call after each trial: samples the kernel and moves if contended
    /// (and, the first time, picks a CPU).
    void after_trial() {
        const double s = kernel_s(wall_);
        kernel_s_ += s;
        fastest_ = std::min(fastest_, s);
        if (pinned_ < 0 || s > kContended * fastest_) hunt();
    }
    /// Seconds spent in the kernel so far.
    double kernel_seconds() const { return kernel_s_; }
    std::size_t hunts() const { return hunts_; }

  private:
    void hunt() {
        if (cpus_.size() < 2) return;
        ++hunts_;
        int best_cpu = -1;
        double best = 0.0;
        for (int c : cpus_) {
            if ((claims_ && !claims_->free_for(c, this)) || !pin(c)) continue;
            const double s = kernel_s(wall_);
            kernel_s_ += s;
            if (best_cpu < 0 || s < best) {
                best = s;
                best_cpu = c;
            }
        }
        if (best_cpu < 0 || (claims_ && !claims_->move(best_cpu, this))) {
            sched_setaffinity(0, sizeof allowed_, &allowed_);
            pinned_ = -1;
            return;
        }
        pin(best_cpu);
        pinned_ = best_cpu;
    }
    bool pin(int cpu) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        return sched_setaffinity(0, sizeof one, &one) == 0;
    }

    bool wall_;
    CpuClaims* claims_;
    std::thread::id owner_;
    cpu_set_t allowed_;
    std::vector<int> cpus_;
    int pinned_ = -1;
    double fastest_ = 1e300;
    double kernel_s_ = 0.0;
    std::size_t hunts_ = 0;
};

/// One CpuHunter per worker thread of a par::run_trials call, each on a CPU
/// of its own.
class HunterPool {
  public:
    CpuHunter& mine() {
        std::lock_guard<std::mutex> lock(mu_);
        const auto id = std::this_thread::get_id();
        for (auto& [tid, h] : hunters_) {
            if (tid == id) return *h;
        }
        hunters_.emplace_back(id, std::make_unique<CpuHunter>(true, &claims_));
        return *hunters_.back().second;
    }
    double kernel_seconds() const {
        double s = 0.0;
        for (const auto& [tid, h] : hunters_) s += h->kernel_seconds();
        return s;
    }

  private:
    std::mutex mu_;
    CpuClaims claims_;
    std::vector<std::pair<std::thread::id, std::unique_ptr<CpuHunter>>> hunters_;
};

double peak_rss_mb() {
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Spans recorded around the benchmark's own calls into each layer, kept
/// in memory and written as JSONL when the run ends. Main thread only.
class SpanLog {
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    std::size_t begin(const char* name, std::int64_t parent = -1, std::int64_t trial = -1) {
        spans_.push_back(Span{name, parent, trial, ns(), -1});
        return spans_.size() - 1;
    }
    void end(std::size_t id) { spans_[id].end_ns = ns(); }

    void write(const fs::path& path) const {
        std::ofstream os(path);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            obs::json::Writer w(os);
            w.begin_object()
                .field("id", static_cast<std::uint64_t>(i))
                .field("name", s.name)
                .field("parent", s.parent)
                .field("trial", s.trial)
                .field("start_ns", s.start_ns)
                .field("end_ns", s.end_ns)
                .end_object();
            os << '\n';
        }
    }

  private:
    struct Span {
        const char* name;
        std::int64_t parent;
        std::int64_t trial;
        std::int64_t start_ns;
        std::int64_t end_ns;
    };
    std::int64_t ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
            .count();
    }

    Clock::time_point origin_;
    std::vector<Span> spans_;
};

/// FNV-1a over 64-bit words.
class Digest {
  public:
    Digest& add(std::uint64_t x) {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (x >> (8 * i)) & 0xffU;
            h_ *= 0x100000001b3ULL;
        }
        return *this;
    }
    Digest& add(double d) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        return add(bits);
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// One trial's outcome. The digest covers accuracy, detected, false
/// positives, isolated, the mean-TI bits and checked_decisions.
struct TrialOut {
    std::uint64_t digest = 0;
    double accuracy = 0.0;
    std::size_t divergences = 0;
    bool ok = false;
};

TrialOut run_trial(const exp::Scenario& base, std::uint64_t seed, obs::Recorder* recorder) {
    exp::Scenario s = base;
    s.seed = seed;
    s.recorder = recorder;
    TrialOut out;
    try {
        Digest d;
        if (s.kind == exp::Scenario::Kind::Binary) {
            const exp::BinaryResult r = exp::run_binary_experiment(s);
            // Binary runs isolate no one; their false positives are the
            // phantom declarations.
            d.add(r.accuracy).add(r.detected).add(r.phantoms_declared).add(std::uint64_t{0});
            d.add(r.mean_ti_correct).add(r.mean_ti_faulty).add(r.checked_decisions);
            out.accuracy = r.accuracy;
            out.divergences = r.oracle_divergences;
        } else {
            const exp::LocationResult r = exp::run_location_experiment(s);
            d.add(r.accuracy).add(r.detected).add(r.false_positives).add(r.isolated);
            d.add(r.mean_ti_correct).add(r.mean_ti_faulty).add(r.checked_decisions);
            out.accuracy = r.accuracy;
            out.divergences = r.oracle_divergences;
        }
        out.digest = d.value();
        out.ok = true;
    } catch (const std::exception& e) {
        std::cerr << "tibbench: trial with seed " << seed << " threw: " << e.what() << '\n';
    }
    return out;
}

/// Counters read from each traced trial's obs::Recorder.
const char* const kCounted[] = {
    metric::kSimEventsExecuted,        metric::kChannelDelivered,
    metric::kChannelDropped,           metric::kChannelOutOfRange,
    metric::kChannelCollisions,        metric::kInjectedDrops,
    metric::kTransportRetransmissions, metric::kClusterReportsReceived,
    metric::kClusterWindowsOpened,     metric::kClusterDecisions,
    metric::kTrustRewards,             metric::kTrustPenalties,
    metric::kCheckDecisionsChecked,    metric::kCheckDivergences,
    metric::kInjectFailovers,
};

std::map<std::string, double> read_counts(const obs::Registry& reg) {
    std::map<std::string, double> out;
    for (const char* name : kCounted) {
        const obs::Counter* c = reg.find_counter(name);
        out[name] = c ? static_cast<double>(c->value()) : 0.0;
    }
    const obs::Gauge* hw = reg.find_gauge(metric::kSimQueueHighWater);
    out[metric::kSimQueueHighWater] = hw ? hw->value() : 0.0;
    return out;
}

/// Endpoints a CH decision broadcast reaches. Both runners put every
/// endpoint in the CH's radio range.
std::size_t broadcast_audience(const exp::Scenario& s) {
    if (s.kind == exp::Scenario::Kind::Binary) {
        return s.binary.n_nodes + (s.binary.use_shadows ? 3 : 0) +
               (s.campaign.failovers.empty() ? 0 : 1);
    }
    return s.location.n_nodes + s.location.n_ch;  // sensors, the other CHs, the base station
}

std::string read_file(const fs::path& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read " + path.string());
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/// Loads one workload. The file must be exactly the write_json form of the
/// scenario it parses to, and the scenario must pass validate().
exp::Scenario load_workload(const fs::path& path) {
    std::string text = read_file(path);
    while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) text.pop_back();
    const exp::Scenario s = exp::scenario_from_json_text(text);
    std::vector<std::string> errors = s.validate();
    const std::string canonical = exp::to_json(s);
    if (text != canonical) {
        errors.push_back(path.string() + " is not in write_json form; it should read:\n" +
                         canonical);
    }
    if (!errors.empty()) {
        std::string msg = "invalid workload:";
        for (const auto& e : errors) msg += "\n  " + e;
        throw std::runtime_error(msg);
    }
    return s;
}

struct Metric {
    std::string name;
    double value;
    const char* unit;
};

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
    std::printf("%s\n", title);
    for (const auto& m : metrics) {
        std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workload_dir = "tibbench/workloads";
    std::string out_dir = ".bench_out";
};

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "tibbench: " << why
              << "\nusage: tibbench --workload NAME --seed N --seconds S --trace 0|1"
                 " [--workload-dir DIR] [--out-dir DIR]\n";
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args a;
    for (int i = 1; i < argc; i += 2) {
        const std::string key = argv[i];
        if (i + 1 >= argc) usage("missing value for " + key);
        const std::string v = argv[i + 1];
        try {
            if (key == "--workload") {
                a.workload = v;
            } else if (key == "--seed") {
                a.seed = std::stoull(v);
            } else if (key == "--seconds") {
                a.seconds = std::stod(v);
            } else if (key == "--trace") {
                if (v != "0" && v != "1") usage("--trace takes 0 or 1");
                a.trace = v == "1";
            } else if (key == "--workload-dir") {
                a.workload_dir = v;
            } else if (key == "--out-dir") {
                a.out_dir = v;
            } else {
                usage("unknown option " + key);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + key + ": " + v);
        }
    }
    if (a.workload.empty()) usage("--workload is required");
    if (!(a.seconds > 0.0)) usage("--seconds must be > 0");
    return a;
}

}  // namespace

int main(int argc, char** argv) {
    const auto t_start = Clock::now();
    const Args args = parse_args(argc, argv);
    const std::size_t jobs = std::min(kSweepJobs, par::hardware_jobs());
    SpanLog spans(t_start);
    auto trial_seed = [&](std::size_t i) { return util::derive_trial_seed(args.seed, i); };

    // The untraced passes run each timed trial on a CPU the host is not
    // slowing down at that moment, as far as CpuHunter can find one (see
    // tibbench/README.md).
    std::vector<double> setup_s, cpu_s;
    exp::Scenario base;
    std::vector<TrialOut> pass1;
    std::size_t pass1_hunts = 0;
    {
        CpuHunter hunter(false);  // pins this thread until the jobs-1 pass ends
        hunter.after_trial();

        // ---- set-up: load + validate the scenario, one untimed warm-up
        // trial. The first set-up precedes the jobs-1 pass and the others
        // are spread over it, so that their median does not hang on one
        // moment of the host. ----
        auto set_up = [&] {
            const std::size_t k = setup_s.size();
            const auto span = spans.begin("setup");
            const double c0 = thread_cpu_s();
            base = load_workload(fs::path(args.workload_dir) / (args.workload + ".json"));
            // Warm-up seeds come from the complemented base seed, apart
            // from every timed trial's.
            const TrialOut warm = run_trial(base, util::derive_trial_seed(~args.seed, k), nullptr);
            if (!warm.ok) throw std::runtime_error("warm-up trial failed");
            setup_s.push_back(thread_cpu_s() - c0);
            spans.end(span);
            hunter.after_trial();
        };
        try {
            set_up();
        } catch (const std::exception& e) {
            std::cerr << "tibbench: " << args.workload << ": " << e.what() << '\n';
            return 2;
        }

        // The jobs-1 pass gets `pass1_budget`; the sweep and traced passes
        // then re-run its trials across `jobs` threads.
        const double budget =
            args.trace ? std::max(1.0, args.seconds - kProbeReserve) : args.seconds;
        const double pass1_budget =
            budget / (1.0 + (1.0 + kTracedCost) / static_cast<double>(jobs));
        const double setup_every = pass1_budget / static_cast<double>(kSetupReps);

        // ---- jobs-1 pass: closed loop, one trial after another, no recorder ----
        const auto pass1_span = spans.begin("pass.jobs1");
        const auto t_pass1 = Clock::now();
        while (pass1.size() < kMinTrials || since(t_pass1) < pass1_budget) {
            if (since(t_pass1) >= static_cast<double>(setup_s.size()) * setup_every &&
                setup_s.size() < kSetupReps) {
                set_up();
            }
            const std::size_t i = pass1.size();
            const auto span = spans.begin("exp.trial", static_cast<std::int64_t>(pass1_span),
                                          static_cast<std::int64_t>(i));
            const double c0 = thread_cpu_s();
            pass1.push_back(run_trial(base, trial_seed(i), nullptr));
            cpu_s.push_back(thread_cpu_s() - c0);
            spans.end(span);
            hunter.after_trial();
        }
        while (setup_s.size() < kSetupReps) set_up();
        spans.end(pass1_span);
        pass1_hunts = hunter.hunts();
    }
    const std::size_t n = pass1.size();

    // ---- sweep pass: the same trials through par::run_trials, each worker
    // with a CpuHunter of its own on the wall clock, since a worker that
    // waits for a core slows the sweep ----
    std::vector<TrialOut> swept(n);
    std::vector<double> sweep_s(n);
    HunterPool sweep_hunters;
    const auto sweep_span = spans.begin("pass.sweep");
    const auto t_sweep = Clock::now();
    par::run_trials(
        n,
        [&](std::size_t i) {
            CpuHunter& hunter = sweep_hunters.mine();
            const auto t0 = Clock::now();
            swept[i] = run_trial(base, trial_seed(i), nullptr);
            sweep_s[i] = since(t0);
            hunter.after_trial();
        },
        jobs);
    // The sweep's wall time less the workers' share spent in the kernel.
    const double in_trials = std::accumulate(sweep_s.begin(), sweep_s.end(), 0.0);
    const double sweep_wall =
        since(t_sweep) * in_trials / (in_trials + sweep_hunters.kernel_seconds());
    spans.end(sweep_span);
    const double rss_mb = peak_rss_mb();  // before any recorder exists

    // ---- traced pass: the same trials, each with its own obs::Recorder,
    // timed like the sweep ----
    std::vector<TrialOut> traced(n);
    std::vector<std::map<std::string, double>> counts(n);
    std::vector<double> traced_s(n);
    HunterPool traced_hunters;
    const auto traced_span = spans.begin("pass.traced");
    par::run_trials(
        n,
        [&](std::size_t i) {
            CpuHunter& hunter = traced_hunters.mine();
            const auto t0 = Clock::now();
            obs::Recorder rec;
            rec.trace().set_enabled(true);
            traced[i] = run_trial(base, trial_seed(i), &rec);
            counts[i] = read_counts(rec.metrics());
            traced_s[i] = since(t0);
            hunter.after_trial();
        },
        jobs);
    spans.end(traced_span);

    // ---- correctness gate ----
    std::size_t failed = 0, divergences = 0;
    for (std::size_t i = 0; i < n; ++i) {
        divergences += pass1[i].divergences;
        const bool agree = pass1[i].ok && swept[i].ok && traced[i].ok &&
                           swept[i].digest == pass1[i].digest &&
                           traced[i].digest == pass1[i].digest;
        if (!agree || pass1[i].divergences > 0) ++failed;
    }

    // Per-trial means of the traced counts, and each trial's event rate.
    std::map<std::string, double> per;
    std::vector<double> event_rates;
    for (std::size_t i = 0; i < n; ++i) {
        for (const auto& [name, v] : counts[i]) per[name] += v / static_cast<double>(n);
        event_rates.push_back(counts[i][metric::kSimEventsExecuted] / cpu_s[i]);
    }
    const double sum_cpu_s = std::accumulate(cpu_s.begin(), cpu_s.end(), 0.0);
    const double p50 = quantile(cpu_s, 0.5);
    double accuracy = 0.0;
    for (const auto& t : pass1) accuracy += t.accuracy / static_cast<double>(n);

    // Contention on a shared host only ever adds time, so the timed metrics
    // take the fast quartile of the trials: p25 of times, p75 of rates.
    const std::vector<Metric> end_to_end = {
        {"setup_s", quantile(setup_s, 0.5), "s"},
        {"trial_s_p25", quantile(cpu_s, 0.25), "s"},
        {"sim_events_per_s_p75", quantile(event_rates, 0.75), "1/s"},
        {"sweep_trials_per_s", static_cast<double>(jobs) / quantile(sweep_s, 0.25), "1/s"},
        {"peak_rss_mb", rss_mb, "MB"},
        {"accuracy", accuracy, "fraction"},
    };

    std::printf("tibbench %s seed=%llu trace=%d jobs=%zu trials=%zu failed=%zu failed_share=%g\n",
                args.workload.c_str(), static_cast<unsigned long long>(args.seed),
                args.trace ? 1 : 0, jobs, n, failed,
                static_cast<double>(failed) / static_cast<double>(n));
    print_metrics("end-to-end (thread CPU seconds per trial, jobs-1 pass; the sweep in wall time):",
                  end_to_end);
    std::printf("  (also: trial_s_p50 %.6g s, trial_s_p90 %.6g s, sweep %.6g trials/s overall,"
                " %zu CPU moves in the jobs-1 pass)\n",
                p50, quantile(cpu_s, 0.9), static_cast<double>(n) / sweep_wall, pass1_hunts);

    std::vector<Metric> per_layer;
    if (args.trace) {
        const bool binary = base.kind == exp::Scenario::Kind::Binary;
        const double events = per[metric::kSimEventsExecuted];
        const double delivered = per[metric::kChannelDelivered];
        const double decisions = per[metric::kClusterDecisions];
        const double reports = per[metric::kClusterReportsReceived];
        const double failovers = per[metric::kInjectFailovers];
        const double lost = per[metric::kChannelDropped] + per[metric::kChannelOutOfRange] +
                            per[metric::kChannelCollisions] + per[metric::kInjectedDrops];
        auto whole = [](double x) { return static_cast<std::size_t>(std::llround(x)); };

        ProbeShape shape;
        shape.queue_depth = whole(per[metric::kSimQueueHighWater]);
        shape.receivers = broadcast_audience(base);
        shape.trust_table = binary ? base.binary.n_nodes : base.location.n_nodes;
        shape.reports_per_decision = whole(ratio(reports, decisions));
        shape.judged_correct = whole(ratio(per[metric::kTrustRewards], decisions));
        shape.judged_faulty = whole(ratio(per[metric::kTrustPenalties], decisions));
        // The traced deliveries must hold every modelled broadcast plus the
        // reports the CHs accepted.
        const double unicast = delivered - decisions * static_cast<double>(shape.receivers);
        const bool audience_ok = unicast >= 0.9 * reports;

        double check_overhead = 1.0;
        if (base.check.mode != check::Mode::Off) {
            exp::Scenario off = base;
            off.check.mode = check::Mode::Off;
            const std::size_t m = std::min(n, kCheckPairs);
            // Timed like the jobs-1 pass, and compared at the same quantile.
            std::vector<double> off_s;
            const auto span = spans.begin("check.off_trials");
            {
                CpuHunter hunter(false);
                hunter.after_trial();
                for (std::size_t i = 0; i < m; ++i) {
                    const double c0 = thread_cpu_s();
                    run_trial(off, trial_seed(i), nullptr);
                    off_s.push_back(thread_cpu_s() - c0);
                    hunter.after_trial();
                }
            }
            spans.end(span);
            const std::vector<double> on_s(cpu_s.begin(),
                                           cpu_s.begin() + static_cast<std::ptrdiff_t>(m));
            check_overhead = quantile(on_s, 0.25) / quantile(off_s, 0.25);
        }

        std::printf("probes (inputs from the traced run):\n");
        auto probe = [&](const char* name, auto&& fn) {
            const auto span = spans.begin(name);
            const Probe p = fn();
            spans.end(span);
            std::printf("  %-32s %16.6g %-3s [%s]%s\n", name, p.value, p.unit, p.shape.c_str(),
                        p.shape_ok ? "" : " SHAPE MISMATCH");
            return p;
        };
        using namespace tibbench;
        const Probe sim_p = probe("probe.sim_event", [&] { return probe_sim_event(shape); });
        const Probe bcast = probe("probe.broadcast", [&] { return probe_broadcast(shape); });
        const Probe ucast = probe("probe.unicast", [&] { return probe_unicast(shape); });
        const Probe handle =
            probe("probe.decision_handle", [&] { return probe_decision_handle(base, shape); });
        const Probe bin =
            probe("probe.decide_binary", [&] { return probe_decide_binary(base, shape); });
        const Probe loc =
            probe("probe.decide_location", [&] { return probe_decide_location(base, shape); });
        const Probe collusion =
            probe("probe.collusion_inspect", [&] { return probe_collusion_inspect(base, shape); });
        const Probe judge =
            probe("probe.trust_judge", [&] { return probe_trust_judge(base, shape); });
        const Probe ckpt = probe("probe.checkpoint_restore",
                                 [&] { return probe_checkpoint_restore(base, shape); });
        if (!audience_ok) {
            std::printf("  traced deliveries (%g per trial) cannot hold %g decisions x %zu"
                        " receivers plus %g reports: SHAPE MISMATCH\n",
                        delivered, decisions, shape.receivers, reports);
        }

        // Shares of the raw CPU p50: count per trial x probe time. Dispatching
        // an event is sim's work, so net leaves out its deliveries' dispatch.
        const double sim_s = sim_p.value * 1e-9;
        const double decide_s = binary ? bin.value * 1e-9 : loc.value * 1e-6;
        struct Share {
            const char* name;
            double value;
            bool ok;
        };
        const Share shares[] = {
            {"sim.share", events * sim_s / p50, sim_p.shape_ok},
            {"net.share",
             std::max(0.0, decisions * bcast.value * 1e-6 +
                               std::max(0.0, unicast) * ucast.value * 1e-9 - delivered * sim_s) /
                 p50,
             bcast.shape_ok && ucast.shape_ok && audience_ok && sim_p.shape_ok},
            {"sensor.share",
             decisions * static_cast<double>(shape.trust_table) * handle.value * 1e-9 / p50,
             handle.shape_ok},
            {"core.share", (decisions * decide_s + failovers * ckpt.value * 1e-6) / p50,
             (binary ? bin.shape_ok : loc.shape_ok) && ckpt.shape_ok},
            {"check.share", 1.0 - 1.0 / check_overhead, true},
        };

        per_layer = {
            {"sim.events_per_trial", events, "count"},
            {"sim.queue_high_water", per[metric::kSimQueueHighWater], "count"},
            {"sim.ns_per_event", sim_p.value, "ns"},
            {"net.deliveries_per_trial", delivered, "count"},
            {"net.fanout", ratio(delivered, decisions), "count"},
            {"net.broadcast_us", bcast.value, "us"},
            {"net.unicast_ns", ucast.value, "ns"},
            {"net.retransmissions_per_report",
             ratio(per[metric::kTransportRetransmissions], reports), "ratio"},
            {"net.loss_share", ratio(lost, delivered + lost), "fraction"},
            {"sensor.decision_handle_ns", handle.value, "ns"},
            {"cluster.reports_per_trial", reports, "count"},
            {"cluster.windows_per_trial", per[metric::kClusterWindowsOpened], "count"},
            {"cluster.decisions_per_trial", decisions, "count"},
            {"cluster.reports_per_decision", ratio(reports, decisions), "ratio"},
            {"core.decide_binary_ns", bin.value, "ns"},
            {"core.decide_location_us", loc.value, "us"},
            {"core.collusion_inspect_us", collusion.value, "us"},
            {"core.judgements_per_trial",
             per[metric::kTrustRewards] + per[metric::kTrustPenalties], "count"},
            {"core.trust_judge_ns", judge.value, "ns"},
            {"core.checkpoint_restore_us", ckpt.value, "us"},
            {"check.decisions_checked", per[metric::kCheckDecisionsChecked], "count"},
            {"check.divergences", per[metric::kCheckDivergences] * static_cast<double>(n),
             "count"},
            {"check.overhead", check_overhead, "ratio"},
            {"inject.injected_drops_per_trial", per[metric::kInjectedDrops], "count"},
            {"inject.failovers_per_trial", failovers, "count"},
            {"par.speedup", sum_cpu_s / sweep_wall, "ratio"},
            {"par.efficiency", sum_cpu_s / sweep_wall / static_cast<double>(jobs), "fraction"},
            {"obs.tracing_overhead", quantile(traced_s, 0.25) / quantile(sweep_s, 0.25),
             "ratio"},
        };
        // A share whose probe ran at another shape than the traced run is
        // left out, and so is the remainder that depends on every share.
        double attributed = 0.0;
        bool all_shares = true;
        for (const auto& s : shares) {
            attributed += s.value;
            all_shares = all_shares && s.ok;
            if (s.ok) per_layer.push_back({s.name, s.value, "fraction"});
        }
        if (all_shares) {
            per_layer.push_back({"exp.unattributed_share", 1.0 - attributed, "fraction"});
        }
        print_metrics("per-layer:", per_layer);
    }

    std::error_code ec;
    fs::create_directories(args.out_dir, ec);
    spans.write(fs::path(args.out_dir) /
                ("spans-" + args.workload + "-seed" + std::to_string(args.seed) + "-trace" +
                 (args.trace ? "1" : "0") + ".jsonl"));

    std::ostringstream os;
    obs::json::Writer w(os);
    w.begin_object()
        .field("correct", failed == 0 && divergences == 0)
        .field("attempted", static_cast<std::uint64_t>(n))
        .field("failed", static_cast<std::uint64_t>(failed));
    w.key("metrics").begin_object();
    const std::vector<Metric>& reported = args.trace ? per_layer : end_to_end;
    for (const auto& m : reported) {
        w.key(m.name).begin_object().field("value", m.value).field("unit", m.unit).end_object();
    }
    w.end_object().end_object();
    std::cout << os.str() << std::endl;
    return failed == 0 ? 0 : 1;
}
