// exp::Scenario contract tests: the validate() rejection table, the JSON
// round-trip and its rejection of malformed values and unknown fields, and
// the path=value overlay that benches and tibfit_cli apply.
#include "exp/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/bench_io.h"
#include "exp/binary_experiment.h"
#include "exp/location_experiment.h"
#include "inject/campaign.h"
#include "obs/artifact.h"
#include "obs/json.h"
#include "obs/recorder.h"

namespace tibfit::exp {
namespace {

bool mentions(const std::vector<std::string>& errors, const std::string& needle) {
    return std::any_of(errors.begin(), errors.end(), [&](const std::string& e) {
        return e.find(needle) != std::string::npos;
    });
}

TEST(Scenario, DefaultsAreValid) {
    EXPECT_TRUE(Scenario::binary_defaults().validate().empty());
    EXPECT_TRUE(Scenario::location_defaults().validate().empty());
}

TEST(Scenario, ValidateRejectionTable) {
    static constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    static constexpr double kInf = std::numeric_limits<double>::infinity();
    struct Case {
        const char* needle;
        void (*mutate)(Scenario&);
        bool location_kind;
    };
    const Case cases[] = {
        {"lambda", [](Scenario& s) { s.engine.trust.lambda = 0.0; }, false},
        {"r_error exceeds the deployment extent",
         [](Scenario& s) { s.engine.r_error = s.deployment.field + 1.0; }, false},
        {"retry budget with zero ack_timeout",
         [](Scenario& s) { s.transport.ack_timeout = 0.0; }, false},
        {"removal_ti", [](Scenario& s) { s.engine.trust.removal_ti = 1.5; }, false},
        {"t_out", [](Scenario& s) { s.engine.t_out = 0.0; }, false},
        {"drop_probability", [](Scenario& s) { s.channel.drop_probability = 1.5; }, false},
        {"false_alarm_rate", [](Scenario& s) { s.faults.false_alarm_rate = -0.25; }, false},
        {"speed_min > speed_max",
         [](Scenario& s) {
             s.mobility.speed_min = 2.0;
             s.mobility.speed_max = 1.0;
         },
         false},
        {"pct_faulty", [](Scenario& s) { s.binary.pct_faulty = 1.2; }, false},
        // NaN slips past a plain `< 0.0` check; non-finite channel timing
        // would reach the event queue.
        {"drop_probability", [](Scenario& s) { s.channel.drop_probability = kNaN; }, false},
        {"base_latency", [](Scenario& s) { s.channel.base_latency = kNaN; }, false},
        {"base_latency", [](Scenario& s) { s.channel.base_latency = kInf; }, false},
        {"propagation_speed", [](Scenario& s) { s.channel.propagation_speed = kNaN; }, false},
        {"propagation_speed", [](Scenario& s) { s.channel.propagation_speed = kInf; }, false},
        {"airtime", [](Scenario& s) { s.channel.airtime = kNaN; }, true},
        {"airtime", [](Scenario& s) { s.channel.airtime = kInf; }, false},
        {"airtime", [](Scenario& s) { s.channel.airtime = -1.0; }, false},
        {"tx_jitter", [](Scenario& s) { s.location.tx_jitter = kNaN; }, true},
        {"tx_jitter", [](Scenario& s) { s.location.tx_jitter = kInf; }, true},
        {"events", [](Scenario& s) { s.binary.events = 0; }, false},
        {"mutually exclusive",
         [](Scenario& s) {
             s.binary.use_shadows = true;
             s.campaign.failovers.push_back({100.0, -1.0, true});
         },
         false},
        {"explicit trust fault_rate",
         [](Scenario& s) { s.engine.trust.fault_rate = -1.0; }, true},
        {"n_ch", [](Scenario& s) { s.location.n_ch = 0; }, true},
        // Oversized counts are refused before anything allocates for them.
        {"binary n_nodes must be <= 100000",
         [](Scenario& s) { s.binary.n_nodes = 4'000'000'000; }, false},
        {"binary events must be <= 1000000",
         [](Scenario& s) { s.binary.events = Scenario::kMaxEvents + 1; }, false},
        {"location n_nodes must be <= 100000",
         [](Scenario& s) { s.location.n_nodes = 100'000'000; }, true},
        {"location n_ch must be <= 100000",
         [](Scenario& s) { s.location.n_ch = Scenario::kMaxNodes + 1; }, true},
        {"location events must be <= 1000000",
         [](Scenario& s) { s.location.events = Scenario::kMaxEvents + 1; }, true},
        {"location burst must be <= 1000000",
         [](Scenario& s) { s.location.burst = Scenario::kMaxEvents + 1; }, true},
        {"location epoch_events must be <= 1000000",
         [](Scenario& s) { s.location.epoch_events = Scenario::kMaxEvents + 1; }, true},
        {"location decay_epoch_events must be <= 1000000",
         [](Scenario& s) { s.location.decay_epoch_events = Scenario::kMaxEvents + 1; }, true},
        {"decay schedule runs more than 1000000 events",
         [](Scenario& s) {
             s.location.decay = true;
             s.location.decay_step = 1e-9;
         },
         true},
        {"decay_final < decay_initial",
         [](Scenario& s) {
             s.location.decay = true;
             s.location.decay_initial = 0.5;
             s.location.decay_final = 0.1;
         },
         true},
        // Campaign defects surface through scenario.validate() too.
        {"window", [](Scenario& s) {
             net::ChannelFaultWindow w;
             w.start = 50.0;
             w.end = 10.0;  // inverted
             s.campaign.degradations.push_back(w);
         }, false},
        {"recover", [](Scenario& s) {
             s.campaign.failovers.push_back({100.0, 50.0, true});  // recover before kill
         }, false},
    };
    for (const auto& c : cases) {
        Scenario s = c.location_kind ? Scenario::location_defaults() : Scenario::binary_defaults();
        c.mutate(s);
        const auto errors = s.validate();
        EXPECT_FALSE(errors.empty()) << c.needle;
        EXPECT_TRUE(mentions(errors, c.needle))
            << "expected an error mentioning '" << c.needle << "'";
    }
}

// The count bounds are inclusive: a scenario at every bound is valid.
TEST(Scenario, CountBoundsAreInclusive) {
    Scenario b = Scenario::binary_defaults();
    b.binary.n_nodes = Scenario::kMaxNodes;
    b.binary.events = Scenario::kMaxEvents;
    EXPECT_TRUE(b.validate().empty());
    Scenario l = Scenario::location_defaults();
    l.location.n_nodes = Scenario::kMaxNodes;
    l.location.n_ch = Scenario::kMaxNodes;
    l.location.events = Scenario::kMaxEvents;
    l.location.burst = Scenario::kMaxEvents;
    l.location.epoch_events = Scenario::kMaxEvents;
    EXPECT_TRUE(l.validate().empty());
    l.location.decay = true;
    l.location.decay_epoch_events = Scenario::kMaxEvents / 15;  // 15 epochs by default
    EXPECT_TRUE(l.validate().empty());
}

// Only a non-finite jitter is refused: a negative one has always been
// accepted and means no jitter.
TEST(Scenario, NegativeTxJitterIsAccepted) {
    Scenario s = Scenario::location_defaults();
    s.location.tx_jitter = -1.0;
    EXPECT_TRUE(s.validate().empty());
}

TEST(Scenario, EffectiveTrustResolvesNerSentinel) {
    Scenario s = Scenario::binary_defaults();
    s.faults.natural_error_rate = 0.05;
    ASSERT_LT(s.engine.trust.fault_rate, 0.0);
    EXPECT_EQ(s.effective_trust().fault_rate, 0.05);
    // Location kind never applies the sentinel.
    Scenario loc = Scenario::location_defaults();
    loc.engine.trust.fault_rate = 0.1;
    EXPECT_EQ(loc.effective_trust().fault_rate, 0.1);
}

TEST(Scenario, JsonRoundTripPreservesEveryLayer) {
    Scenario s = Scenario::location_defaults();
    s.seed = 123456;
    s.engine.policy = core::DecisionPolicy::MajorityVote;
    s.engine.trust.lambda = 0.3;
    s.engine.r_error = 7.5;
    s.channel.drop_probability = 0.02;
    s.channel.airtime = 0.001;
    s.transport.max_retries = 9;
    s.deployment.field = 150.0;
    s.faults.faulty_sigma = 5.5;
    s.faults.collusion_jitter = 0.25;
    s.mobility.speed_max = 3.0;
    s.location.n_nodes = 64;
    s.location.fault_level = sensor::NodeClass::Level2;
    s.location.multihop = true;
    s.location.decay = true;
    s.location.decay_final = 0.6;
    net::ChannelFaultWindow w;
    w.start = 5.0;
    w.end = 10.0;
    w.extra_drop = 0.5;
    s.campaign.degradations.push_back(w);
    s.campaign.compromises.push_back({400.0, 0.5});

    const Scenario back = scenario_from_json_text(to_json(s));
    EXPECT_EQ(back.kind, Scenario::Kind::Location);
    EXPECT_EQ(back.seed, 123456u);
    EXPECT_EQ(back.engine.policy, core::DecisionPolicy::MajorityVote);
    EXPECT_EQ(back.engine.trust.lambda, 0.3);
    EXPECT_EQ(back.engine.r_error, 7.5);
    EXPECT_EQ(back.channel.drop_probability, 0.02);
    EXPECT_EQ(back.channel.airtime, 0.001);
    EXPECT_EQ(back.transport.max_retries, 9u);
    EXPECT_EQ(back.deployment.field, 150.0);
    EXPECT_EQ(back.faults.faulty_sigma, 5.5);
    EXPECT_EQ(back.faults.collusion_jitter, 0.25);
    EXPECT_EQ(back.mobility.speed_max, 3.0);
    EXPECT_EQ(back.location.n_nodes, 64u);
    EXPECT_EQ(back.location.fault_level, sensor::NodeClass::Level2);
    EXPECT_TRUE(back.location.multihop);
    EXPECT_TRUE(back.location.decay);
    EXPECT_EQ(back.location.decay_final, 0.6);
    ASSERT_EQ(back.campaign.degradations.size(), 1u);
    EXPECT_EQ(back.campaign.degradations[0].extra_drop, 0.5);
    ASSERT_EQ(back.campaign.compromises.size(), 1u);
    EXPECT_EQ(back.campaign.compromises[0].target_pct, 0.5);
}

TEST(Scenario, FromJsonRejectsUnknownKind) {
    EXPECT_THROW(scenario_from_json_text(R"({"kind": "quantum"})"), std::runtime_error);
    EXPECT_THROW(scenario_from_json_text(R"([1, 2, 3])"), std::runtime_error);
}

// Malformed values must be rejected with a message naming the key, never
// wrapped, truncated or silently replaced by the default.
TEST(Scenario, FromJsonRejectionTable) {
    struct Case {
        const char* json;
        const char* needle;
    };
    const Case cases[] = {
        // Negative, fractional and out-of-range counts.
        {R"({"binary": {"n_nodes": -1}})", "binary.n_nodes must be a non-negative integer"},
        {R"({"binary": {"n_nodes": 2.5}})", "binary.n_nodes must be a non-negative integer"},
        {R"({"binary": {"events": 1e300}})", "binary.events must be at most 9007199254740992"},
        {R"({"transport": {"ttl": 256}})", "transport.ttl must be at most 255"},
        {R"({"transport": {"max_retries": 4294967296}})", "transport.max_retries must be at most"},
        {R"({"seed": -3})", "seed must be a non-negative integer"},
        {R"({"seed": 18446744073709551616})", "seed must be at most 9007199254740992"},
        // 2^53 + 1 parses to the double 2^53; refused, not rounded.
        {R"({"seed": 9007199254740993})", "seed must be at most 9007199254740992"},
        {R"({"kind": "location", "location": {"burst": -2}})", "location.burst"},
        {R"({"kind": "location", "location": {"decay_epoch_events": 0.5}})",
         "location.decay_epoch_events"},
        // Values of the wrong type.
        {R"({"binary": {"n_nodes": "10"}})", "binary.n_nodes must be a non-negative integer"},
        {R"({"binary": {"pct_faulty": "0.4"}})", "binary.pct_faulty must be a number"},
        {R"({"binary": {"use_shadows": 1}})", "binary.use_shadows must be true or false"},
        {R"({"engine": {"trust": {"lambda": null}}})", "engine.trust.lambda must be a number"},
        {R"({"engine": {"policy": 1}})", "engine.policy must be a string"},
        {R"({"kind": 2})", "kind must be a string"},
        {R"({"check": {"mode": true}})", "check.mode must be a string"},
        {R"({"kind": "location", "location": {"fault_level": 0}})",
         "location.fault_level must be a string"},
        // Sections that are not objects.
        {R"({"engine": 5})", "engine must be a JSON object"},
        {R"({"binary": [1]})", "binary must be a JSON object"},
        {R"({"engine": {"trust": "strict"}})", "engine.trust must be a JSON object"},
        {R"({"campaign": {"degradations": {}}})", "degradations must be an array of objects"},
        // Unknown names and fields: a typo is refused by its path.
        {R"({"engine": {"policy": "basline"}})",
         "engine.policy must be one of trust_index, majority_vote, got 'basline'"},
        {R"({"engine": {"trust": {"lamda": 0.9}}})", "unknown field engine.trust.lamda"},
        {R"({"binry": {"events": 5}})", "unknown field binry"},
        {R"({"campaign": {"degradations": [{"start": 1, "extra_dorp": 0.5}]}})",
         "unknown field degradations[0].extra_dorp"},
    };
    for (const Case& c : cases) {
        try {
            scenario_from_json_text(c.json);
            ADD_FAILURE() << "accepted " << c.json;
        } catch (const std::runtime_error& e) {
            EXPECT_NE(std::string(e.what()).find(c.needle), std::string::npos)
                << c.json << " -> " << e.what();
        }
    }
}

// 2^53 is the largest count a JSON number carries exactly.
TEST(Scenario, SeedRoundTripsExactlyAt2To53) {
    Scenario s = Scenario::binary_defaults();
    s.seed = 9007199254740992u;
    EXPECT_EQ(scenario_from_json_text(to_json(s)).seed, 9007199254740992u);
}

std::string read_text(const std::filesystem::path& path) {
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    EXPECT_FALSE(os.str().empty()) << path;
    return os.str();
}

// The benchmark refuses a workload whose text is not exactly to_json of
// the scenario it parses to, so write_json's form is frozen: a new field,
// a renamed key or a reordered section must fail here first. Reads every
// committed workload, as the benchmark's loader does (trailing whitespace
// dropped), and writes none.
TEST(Scenario, BenchmarkWorkloadsAreInWriteJsonForm) {
    const std::filesystem::path dir =
        std::filesystem::path(TIBFIT_SOURCE_DIR) / "tibbench" / "workloads";
    std::size_t loaded = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".json") continue;
        std::string doc = read_text(entry.path());
        while (!doc.empty() && std::isspace(static_cast<unsigned char>(doc.back()))) doc.pop_back();
        const Scenario s = scenario_from_json_text(doc);
        EXPECT_EQ(to_json(s), doc) << entry.path();
        EXPECT_TRUE(s.validate().empty()) << entry.path();
        ++loaded;
    }
    EXPECT_GE(loaded, 3u);
}

// The committed campaign holds exactly the schema's fields.
TEST(Scenario, CommittedDocumentsLoadUnchanged) {
    const inject::CampaignSpec spec = inject::campaign_from_json(obs::json::parse(
        read_text(std::filesystem::path(TIBFIT_SOURCE_DIR) / "ci" / "campaign_smoke.json")));
    EXPECT_EQ(spec.degradations.size(), 1u);
    EXPECT_EQ(spec.failovers.size(), 1u);
    EXPECT_EQ(spec.compromises.size(), 1u);
    EXPECT_EQ(spec.fault_shifts.size(), 1u);
}

TEST(Scenario, OverlayTypesValuesAndNestsPaths) {
    const obs::json::Value v = overlay_from_tokens(
        {"engine.trust.lambda=0.2", "binary.use_shadows=true", "engine.policy=majority_vote",
         "seed=12", "channel.airtime=nan", "seed=13"});
    const obs::json::Value* trust = v.find("engine")->find("trust");
    ASSERT_NE(trust, nullptr);
    EXPECT_EQ(trust->find("lambda")->as_number(), 0.2);
    EXPECT_TRUE(v.find("binary")->find("use_shadows")->as_bool());
    EXPECT_EQ(v.find("engine")->find("policy")->as_string(), "majority_vote");
    EXPECT_EQ(v.find("seed")->as_number(), 13.0);  // the later token wins
    EXPECT_TRUE(std::isnan(v.find("channel")->find("airtime")->as_number()));
}

TEST(Scenario, OverlayRejectsConflictingAndMalformedTokens) {
    EXPECT_THROW(overlay_from_tokens({"engine.trust=1", "engine.trust.lambda=0.2"}),
                 std::runtime_error);
    EXPECT_THROW(overlay_from_tokens({"engine.trust.lambda=0.2", "engine.trust=1"}),
                 std::runtime_error);
    EXPECT_THROW(overlay_from_tokens({"lambda"}), std::runtime_error);
    std::string deep = "a";
    for (std::size_t i = 0; i < obs::json::kMaxDepth; ++i) deep += ".a";
    EXPECT_THROW(overlay_from_tokens({deep + "=1"}), std::runtime_error);
    EXPECT_THROW(overlay_from_tokens({"=0.2"}), std::runtime_error);
}

// apply_json merges onto an existing scenario: fields the overlay does not
// name keep their values, and every walk() field is reachable by path.
TEST(Scenario, ApplyJsonMergesOntoExistingScenario) {
    Scenario s = Scenario::location_defaults();
    s.location.events = 77;
    apply_json(s, overlay_from_tokens({"mobility.pause=2.5", "location.fault_level=level2",
                                       "engine.trust.lambda=0.4", "seed=9007199254740992"}));
    EXPECT_EQ(s.mobility.pause, 2.5);
    EXPECT_EQ(s.location.fault_level, sensor::NodeClass::Level2);
    EXPECT_EQ(s.engine.trust.lambda, 0.4);
    EXPECT_EQ(s.seed, 9007199254740992u);
    EXPECT_EQ(s.location.events, 77u);
    EXPECT_EQ(s.kind, Scenario::Kind::Location);
    EXPECT_EQ(s.engine.trust.removal_ti, Scenario::location_defaults().engine.trust.removal_ti);

    const auto message = [&](const std::vector<std::string>& tokens) {
        try {
            apply_json(s, overlay_from_tokens(tokens));
        } catch (const std::runtime_error& e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    EXPECT_EQ(message({"lamda=0.9"}), "scenario: unknown field lamda");
    EXPECT_EQ(message({"location.events=-3"}),
              "scenario: location.events must be a non-negative integer, got -3");
    EXPECT_EQ(message({"seed=9007199254740993"}),
              "scenario: seed must be at most 9007199254740992");
    EXPECT_EQ(message({"location.fault_level=7"}),
              "scenario: location.fault_level must be a string, one of correct, level0, level1, "
              "level2");
}

// A bench's key=value tokens that are neither declared options nor runs=
// reach its base scenario by path. trial_runs(), like option(), declares
// its key before apply().
TEST(BenchIo, ApplyOverridesScenarioFieldsByPath) {
    const char* argv[] = {"bench_x", "mobility.pause=2.5", "runs=3", "degrade=0.1", "seed=9"};
    BenchIo io("bench_x", 5, const_cast<char**>(argv));
    EXPECT_EQ(io.option("degrade", 0.45, "a bench knob"), 0.1);
    EXPECT_EQ(io.trial_runs(7), 3u);
    Scenario s = Scenario::binary_defaults();
    io.apply(s);
    EXPECT_EQ(s.mobility.pause, 2.5);
    EXPECT_EQ(s.seed, 9u);
}

// A first trial_runs() after apply() is a bench bug: apply() already
// decided the bench reads no runs=.
TEST(BenchIo, TrialRunsAfterApplyThrows) {
    const char* argv[] = {"bench_x"};
    BenchIo io("bench_x", 1, const_cast<char**>(argv));
    Scenario s = Scenario::binary_defaults();
    io.apply(s);
    EXPECT_THROW(io.trial_runs(7), std::logic_error);
}

// A bench that never calls trial_runs() refuses runs= instead of ignoring
// it.
TEST(BenchIoDeathTest, ApplyExitsTwoOnRunsTheBenchDoesNotRead) {
    const auto apply = [] {
        const char* argv[] = {"bench_x", "runs=5"};
        BenchIo io("bench_x", 2, const_cast<char**>(argv));
        Scenario s = Scenario::location_defaults();
        io.apply(s);
    };
    EXPECT_EXIT(apply(), ::testing::ExitedWithCode(2),
                "bench_x: 'runs=5': this bench has no trial count to set");
}

// The reader accepts location.events=0; validate() refuses it.
TEST(BenchIoDeathTest, ApplyExitsTwoOnInvalidScenario) {
    const auto apply = [] {
        const char* argv[] = {"bench_x", "location.events=0"};
        BenchIo io("bench_x", 2, const_cast<char**>(argv));
        Scenario s = Scenario::location_defaults();
        io.apply(s);
    };
    EXPECT_EXIT(apply(), ::testing::ExitedWithCode(2),
                "bench_x: scenario: location events must be >= 1");
}

// finish(s) records s as the artifact's scenario: the block reads back to
// s, and a fresh run of what it reads back writes the same artifact, so
// its metrics are reproduced exactly.
void expect_artifact_replays(const Scenario& s, const std::string& file) {
    const std::string path = ::testing::TempDir() + file;
    const char* argv[] = {"bench_x", "--json", path.c_str()};
    BenchIo io("bench_x", 3, const_cast<char**>(argv));
    ASSERT_EQ(io.finish(s), 0);
    std::ifstream in(path);
    std::ostringstream written;
    written << in.rdbuf();
    std::remove(path.c_str());

    const obs::json::Value doc = obs::json::parse(written.str());
    EXPECT_EQ(doc.number_or("schema", -1), obs::kArtifactSchemaVersion);
    EXPECT_GT(doc.find("metrics")->find("counters")->number_or("cluster.decisions", 0), 0);
    const Scenario replay = scenario_from_json(*doc.find("scenario"));
    EXPECT_EQ(to_json(replay), to_json(s));

    obs::Recorder rec;
    Scenario run = replay;
    run.recorder = &rec;
    if (run.kind == Scenario::Kind::Binary) {
        run_binary_experiment(run);
    } else {
        run_location_experiment(run);
    }
    obs::ArtifactMeta meta;
    meta.name = "bench_x";
    meta.argv = {"bench_x", "--json", path};
    std::ostringstream expected;
    obs::write_run_artifact(
        expected, meta, rec.metrics(), [&](obs::json::Writer& w) { write_json(replay, w); }, {});
    EXPECT_EQ(written.str(), expected.str());
}

TEST(BenchIo, FinishRecordsReplayableBinaryFailoverScenario) {
    Scenario s = Scenario::binary_defaults();
    s.binary.events = 60;
    s.binary.reliable_reports = true;
    s.faults.false_alarm_rate = 0.3;
    s.campaign.failovers.push_back({300.0, -1.0, true});
    s.seed = 7;
    ASSERT_TRUE(s.validate().empty());
    expect_artifact_replays(s, "bench_io_binary_failover.json");
}

TEST(BenchIo, FinishRecordsReplayableLevel2LocationScenario) {
    Scenario s = Scenario::location_defaults();
    s.location.fault_level = sensor::NodeClass::Level2;
    s.location.pct_faulty = 0.3;
    s.location.events = 40;
    s.seed = 11;
    ASSERT_TRUE(s.validate().empty());
    expect_artifact_replays(s, "bench_io_location_level2.json");
}

TEST(Scenario, FromJsonAcceptsCountLimits) {
    const Scenario s = scenario_from_json_text(
        R"({"seed": 9007199254740992, "transport": {"ttl": 255, "max_retries": 4294967295},
            "binary": {"n_nodes": 0, "events": 7.0}})");
    EXPECT_EQ(s.seed, 9007199254740992u);
    EXPECT_EQ(s.transport.ttl, 255u);
    EXPECT_EQ(s.transport.max_retries, 4294967295u);
    EXPECT_EQ(s.binary.n_nodes, 0u);  // parses; validate() rejects it
    EXPECT_EQ(s.binary.events, 7u);
}

}  // namespace
}  // namespace tibfit::exp
