// Unit tests for the observability layer: registry semantics, the summary
// writer, the JSON writer/parser pair, trace JSONL round-trips, the bench
// run artifact document, and which tallies a run exports.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "exp/binary_experiment.h"
#include "exp/location_experiment.h"
#include "obs/artifact.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "util/table.h"

namespace tibfit {
namespace {

TEST(Registry, FindOrCreateReturnsStableReferences) {
    obs::Registry r;
    obs::Counter& c1 = r.counter("a.b");
    c1.inc();
    obs::Counter& c2 = r.counter("a.b");
    EXPECT_EQ(&c1, &c2);
    EXPECT_EQ(c2.value(), 1u);

    // References survive unrelated insertions (map-backed storage).
    for (int i = 0; i < 100; ++i) r.counter("filler." + std::to_string(i));
    c1.inc(2);
    EXPECT_EQ(r.counter("a.b").value(), 3u);
}

TEST(Registry, GaugeSetAndHighWater) {
    obs::Registry r;
    obs::Gauge& g = r.gauge("g");
    g.set(5.0);
    g.set_max(3.0);
    EXPECT_DOUBLE_EQ(g.value(), 5.0);
    g.set_max(7.0);
    EXPECT_DOUBLE_EQ(g.value(), 7.0);
    g.set(1.0);
    EXPECT_DOUBLE_EQ(g.value(), 1.0);
}

TEST(Registry, HistogramLayoutFixedAtCreation) {
    obs::Registry r;
    obs::HistogramMetric& h = r.histogram("h", 0.0, 10.0, 10);
    h.observe(2.5);
    // A second lookup with different bounds returns the original layout.
    obs::HistogramMetric& again = r.histogram("h", -1.0, 1.0, 2);
    EXPECT_EQ(&h, &again);
    EXPECT_EQ(again.count(), 1u);
    EXPECT_DOUBLE_EQ(again.stats().mean(), 2.5);
}

TEST(Registry, FindWithoutCreation) {
    obs::Registry r;
    EXPECT_EQ(r.find_counter("missing"), nullptr);
    r.counter("present").inc(4);
    ASSERT_NE(r.find_counter("present"), nullptr);
    EXPECT_EQ(r.find_counter("present")->value(), 4u);
    EXPECT_EQ(r.size(), 1u);
}

TEST(Registry, SummaryListsEveryMetric) {
    obs::Registry r;
    r.counter("alpha").inc(7);
    r.counter("a.zero");
    r.gauge("beta").set(0.5);
    r.histogram("gamma", 0.0, 1.0, 4).observe(0.25);
    r.histogram("gamma", 0.0, 1.0, 4).observe(0.75);
    auto& wide = r.histogram("delta", 0.0, 1.0, 2);
    wide.observe(-1.0);
    wide.observe(0.5);
    wide.observe(3.0);
    r.histogram("empty", 0.0, 1.0, 2);
    std::ostringstream os;
    r.write_summary(os);
    // Name-sorted within each kind: counters, then gauges, then histograms,
    // whose out-of-range counts appear only when there are some.
    EXPECT_EQ(os.str(),
              "== metrics ==\n"
              "a.zero                               0\n"
              "alpha                                7\n"
              "beta                                 0.5\n"
              "delta                                n=3 mean=0.8333333333333333 min=-1 max=3 "
              "p50=1 p99=1 under=1 over=1\n"
              "empty                                n=0\n"
              "gamma                                n=2 mean=0.5 min=0.25 max=0.75 p50=0.5 "
              "p99=1\n");
}

TEST(Registry, JsonRoundTrip) {
    obs::Registry r;
    r.counter("hits").inc(42);
    r.gauge("ratio").set(0.125);
    auto& h = r.histogram("lat", 0.0, 4.0, 4);
    h.observe(1.0);
    h.observe(3.0);

    std::ostringstream os;
    obs::json::Writer w(os);
    r.write_json(w);

    const auto doc = obs::json::parse(os.str());
    EXPECT_DOUBLE_EQ(doc.find("counters")->number_or("hits", -1), 42.0);
    EXPECT_DOUBLE_EQ(doc.find("gauges")->number_or("ratio", -1), 0.125);
    const auto* lat = doc.find("histograms")->find("lat");
    ASSERT_NE(lat, nullptr);
    EXPECT_DOUBLE_EQ(lat->number_or("count", -1), 2.0);
    EXPECT_DOUBLE_EQ(lat->number_or("mean", -1), 2.0);
    EXPECT_EQ(lat->find("bins")->as_array().size(), 4u);
}

TEST(JsonWriter, EscapesAndNests) {
    std::ostringstream os;
    obs::json::Writer w(os);
    w.begin_object().field("text", "a\"b\\c\n").key("arr").begin_array();
    w.value(1).value(true).value_null();
    w.end_array().end_object();
    const auto doc = obs::json::parse(os.str());
    EXPECT_EQ(doc.find("text")->as_string(), "a\"b\\c\n");
    ASSERT_EQ(doc.find("arr")->as_array().size(), 3u);
    EXPECT_TRUE(doc.find("arr")->as_array()[2].is_null());
}

TEST(JsonParser, AcceptsNestingUpToTheLimit) {
    const std::size_t depth = obs::json::kMaxDepth;
    const auto doc = obs::json::parse(std::string(depth, '[') + std::string(depth, ']'));
    const obs::json::Value* v = &doc;
    for (std::size_t i = 1; i < depth; ++i) {
        ASSERT_EQ(v->as_array().size(), 1u);
        v = &v->as_array()[0];
    }
    EXPECT_TRUE(v->as_array().empty());
}

TEST(JsonParser, RejectsNestingPastTheLimitAtItsOffset) {
    // One container too many fails at the byte that opens it, whatever the
    // document's size: the recursive parser never descends past the limit.
    const std::size_t depth = obs::json::kMaxDepth;
    std::string objects;  // alternating {"k": and [, one container too deep
    for (std::size_t i = 0; i < depth; ++i) objects += i % 2 ? "[" : "{\"k\":";
    const std::size_t objects_offset = objects.size();
    objects += "{\"k\":1}";
    const std::pair<std::string, std::size_t> cases[] = {
        {std::string(depth + 1, '['), depth},
        {std::string(200000, '['), depth},
        {objects, objects_offset},
    };
    for (const auto& [text, offset] : cases) {
        const std::string expected = "json parse error at byte " + std::to_string(offset) +
                                     ": nesting deeper than " + std::to_string(depth) +
                                     " levels";
        try {
            obs::json::parse(text);
            ADD_FAILURE() << "accepted nesting of " << text.size() << " bytes";
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string(e.what()), expected);
        }
    }
}

TEST(JsonParser, TraceReaderRejectsDeepNesting) {
    std::istringstream is("{\"type\":\"trace_header\",\"schema\":1,\"source\":\"tibfit::obs\"}\n" +
                          std::string(200000, '[') + "\n");
    EXPECT_THROW(obs::read_trace_jsonl(is), std::runtime_error);
}

TEST(Trace, DisabledLogAppendsNothing) {
    obs::TraceLog log;
    log.append(1.0, obs::EventInjected{});
    EXPECT_EQ(log.size(), 0u);
    log.set_enabled(true);
    log.append(2.0, obs::EventInjected{});
    EXPECT_EQ(log.size(), 1u);
}

TEST(Trace, JsonlRoundTripPreservesEveryRecordKind) {
    obs::TraceLog log;
    log.set_enabled(true);
    log.append(1.0, obs::EventInjected{7, 12.5, 33.25, 9});
    log.append(1.5, obs::ReportReceived{3, 100, true, false});
    log.append(1.5, obs::ReportDropped{4, 100, obs::DropReason::Collision});
    log.append(2.0, obs::WindowOpened{100, 3});
    log.append(3.0, obs::DecisionMade{100, 5, true, true, 12.0, 34.0, 6.5, 1.25, 4, 0.5});
    log.append(3.0, obs::TrustUpdated{4, true, 0.9, 0.914});

    std::ostringstream os;
    log.write_jsonl(os);
    std::istringstream is(os.str());
    const auto records = obs::read_trace_jsonl(is);
    ASSERT_EQ(records.size(), 6u);

    const auto& ev = std::get<obs::EventInjected>(records[0].data);
    EXPECT_EQ(ev.event_id, 7u);
    EXPECT_DOUBLE_EQ(ev.x, 12.5);
    EXPECT_EQ(ev.n_neighbours, 9u);

    const auto& drop = std::get<obs::ReportDropped>(records[2].data);
    EXPECT_EQ(drop.reason, obs::DropReason::Collision);

    const auto& dec = std::get<obs::DecisionMade>(records[4].data);
    EXPECT_EQ(dec.decision_seq, 5u);
    EXPECT_TRUE(dec.event_declared);
    EXPECT_DOUBLE_EQ(dec.weight_reporters, 6.5);
    EXPECT_DOUBLE_EQ(dec.latency, 0.5);

    const auto& tu = std::get<obs::TrustUpdated>(records[5].data);
    EXPECT_TRUE(tu.penalty);
    EXPECT_DOUBLE_EQ(tu.ti, 0.914);
}

TEST(Trace, ReaderRejectsSchemaMismatch) {
    std::istringstream is(R"({"type":"trace_header","schema":999,"source":"tibfit::obs"})");
    EXPECT_THROW(obs::read_trace_jsonl(is), std::runtime_error);
}

TEST(Trace, ReaderRejectsUnknownRecordType) {
    std::istringstream is(
        "{\"type\":\"trace_header\",\"schema\":1,\"source\":\"tibfit::obs\"}\n"
        "{\"type\":\"wat\",\"t\":0,\"seq\":0}\n");
    EXPECT_THROW(obs::read_trace_jsonl(is), std::runtime_error);
}

TEST(Artifact, CarriesMetricsScenarioAndTables) {
    obs::Recorder rec;
    exp::Scenario cfg = exp::Scenario::binary_defaults();
    cfg.binary.events = 30;
    cfg.binary.pct_faulty = 0.4;
    cfg.seed = 3;
    cfg.recorder = &rec;
    exp::run_binary_experiment(cfg);

    util::Table t("demo");
    t.header({"k", "v"});
    t.row({"x", "1"});

    obs::ArtifactMeta meta;
    meta.name = "obs_test";
    meta.argv = {"obs_test", "--json", "out.json"};
    std::ostringstream os;
    obs::write_run_artifact(
        os, meta, rec.metrics(), [&](obs::json::Writer& w) { exp::write_json(cfg, w); }, {t});

    const auto doc = obs::json::parse(os.str());
    EXPECT_DOUBLE_EQ(doc.number_or("schema", -1), obs::kArtifactSchemaVersion);
    EXPECT_EQ(doc.string_or("name", ""), "obs_test");
    EXPECT_EQ(doc.find("argv")->as_array().size(), 3u);
    EXPECT_EQ(doc.find("params"), nullptr);
    const obs::json::Value& scenario = *doc.find("scenario");
    EXPECT_EQ(scenario.string_or("kind", ""), "binary");
    EXPECT_EQ(scenario.number_or("seed", -1), 3);
    EXPECT_EQ(scenario.find("binary")->number_or("events", -1), 30);
    EXPECT_EQ(scenario.find("binary")->number_or("pct_faulty", -1), 0.4);

    // The acceptance bar: at least 10 distinct named metrics, including
    // the channel/transport/latency/trust headliners.
    const auto& m = *doc.find("metrics");
    const std::size_t n_metrics = m.find("counters")->as_object().size() +
                                  m.find("gauges")->as_object().size() +
                                  m.find("histograms")->as_object().size();
    EXPECT_GE(n_metrics, 10u);
    EXPECT_NE(m.find("counters")->find(obs::metric::kChannelDropped), nullptr);
    EXPECT_NE(m.find("counters")->find(obs::metric::kTransportRetransmissions), nullptr);
    EXPECT_NE(m.find("histograms")->find(obs::metric::kClusterDecisionLatency), nullptr);
    EXPECT_NE(m.find("gauges")->find(obs::metric::kExpMeanTi), nullptr);

    // The instrumented run actually moved the needles.
    EXPECT_GT(m.find("counters")->number_or(obs::metric::kClusterDecisions, 0), 0.0);
    EXPECT_GT(m.find("gauges")->number_or(obs::metric::kExpMeanTi, 0), 0.0);

    const auto& tables = doc.find("tables")->as_array();
    ASSERT_EQ(tables.size(), 1u);
    EXPECT_EQ(tables[0].string_or("title", ""), "demo");
}

// The run harness adds every component tally to the registry once, at the
// end of the run, under the presence rules the live counters had: the
// injected_* counters only when a fault schedule is armed, check.* only
// when oracles are attached, and cluster.* as the CHs announced.
TEST(RunExport, TalliesFollowThePresenceRules) {
    struct Case {
        const char* name;
        exp::Scenario scenario;
        bool injected;  ///< net.channel.injected_* registered (all four at 0)
        bool checked;   ///< check.* registered
        bool overridden = false;  ///< the base station overrides some verdicts
    };
    std::vector<Case> cases;
    {
        exp::Scenario s = exp::Scenario::location_defaults();
        s.location.events = 30;
        cases.push_back({"plain location run", s, false, false});
    }
    {
        exp::Scenario s = exp::Scenario::binary_defaults();
        s.binary.events = 30;
        net::ChannelFaultWindow late;  // opens after the last event
        late.start = 1e6;
        late.end = 2e6;
        late.extra_drop = 0.5;
        s.campaign.degradations.push_back(late);
        cases.push_back({"idle degradation window", s, true, false});
    }
    {
        exp::Scenario s = exp::Scenario::location_defaults();
        s.location.events = 30;
        s.check.mode = check::Mode::Shadow;
        cases.push_back({"shadow oracle", s, false, true});
    }
    {
        exp::Scenario s = exp::Scenario::binary_defaults();
        s.binary.events = 30;
        s.binary.use_shadows = true;
        s.binary.corrupt_ch = true;
        s.keep_decisions = true;
        cases.push_back({"station overrides a corrupt CH", s, false, false, true});
    }

    const char* const injected_names[] = {obs::metric::kInjectedDrops,
                                          obs::metric::kInjectedDuplicates,
                                          obs::metric::kInjectedDelays,
                                          obs::metric::kInjectedReorders};
    for (Case& c : cases) {
        SCOPED_TRACE(c.name);
        ASSERT_TRUE(c.scenario.validate().empty());
        obs::Recorder rec;
        rec.trace().set_enabled(true);
        c.scenario.recorder = &rec;
        std::size_t checked = 0, divergences = 0, overrides = 0, declared_in_log = 0;
        if (c.scenario.kind == exp::Scenario::Kind::Binary) {
            const exp::BinaryResult r = exp::run_binary_experiment(c.scenario);
            checked = r.checked_decisions;
            divergences = r.oracle_divergences;
            overrides = r.ch_overrides;
            for (const auto& d : r.decisions) declared_in_log += d.event_declared ? 1 : 0;
        } else {
            const exp::LocationResult r = exp::run_location_experiment(c.scenario);
            checked = r.checked_decisions;
            divergences = r.oracle_divergences;
        }
        const obs::Registry& reg = rec.metrics();

        for (const char* name : injected_names) {
            const obs::Counter* counter = reg.find_counter(name);
            EXPECT_EQ(counter != nullptr, c.injected) << name;
            if (counter) {
                EXPECT_EQ(counter->value(), 0u) << name;
            }
        }

        const obs::Counter* n_checked = reg.find_counter(obs::metric::kCheckDecisionsChecked);
        const obs::Counter* n_diverged = reg.find_counter(obs::metric::kCheckDivergences);
        EXPECT_EQ(n_checked != nullptr, c.checked);
        EXPECT_EQ(n_diverged != nullptr, c.checked);
        if (n_checked && n_diverged) {
            EXPECT_GT(checked, 0u);
            EXPECT_EQ(n_checked->value(), checked);
            EXPECT_EQ(n_diverged->value(), divergences);
        }

        // cluster.* count what the CHs announced, which the trace records.
        std::size_t made = 0, declared = 0;
        for (const auto& record : rec.trace().records()) {
            if (const auto* d = std::get_if<obs::DecisionMade>(&record.data)) {
                ++made;
                declared += d->event_declared ? 1 : 0;
            }
        }
        EXPECT_GT(made, 0u);
        EXPECT_EQ(reg.find_counter(obs::metric::kClusterDecisions)->value(), made);
        EXPECT_EQ(reg.find_counter(obs::metric::kClusterEventsDeclared)->value(), declared);
        EXPECT_EQ(overrides > 0, c.overridden);
        if (c.overridden) {
            // The station rewrote the scored log; the counter did not follow.
            EXPECT_NE(declared_in_log, declared);
        }
    }
}

TEST(Artifact, BuildRevisionIsNonEmpty) {
    EXPECT_FALSE(obs::build_revision().empty());
}

TEST(RegistryMerge, CountersAddAndMissingMetricsAreCreated) {
    obs::Registry a, b;
    a.counter("x").inc(2);
    b.counter("x").inc(3);
    b.counter("only_b").inc(7);
    a.merge(b);
    EXPECT_EQ(a.find_counter("x")->value(), 5u);
    ASSERT_NE(a.find_counter("only_b"), nullptr);
    EXPECT_EQ(a.find_counter("only_b")->value(), 7u);
}

TEST(RegistryMerge, GaugeSemanticsFollowWriteMode) {
    obs::Registry a, b, c;
    // Plain gauges: last write wins, like sequential runs sharing a gauge.
    a.gauge("acc").set(0.5);
    b.gauge("acc").set(0.8);
    // High-water gauges: max-combine.
    a.gauge("hw").set_max(10.0);
    b.gauge("hw").set_max(4.0);
    // Untouched gauges must not clobber real values.
    c.gauge("acc");
    a.merge(b);
    a.merge(c);
    EXPECT_EQ(a.find_gauge("acc")->value(), 0.8);
    EXPECT_EQ(a.find_gauge("hw")->value(), 10.0);
}

TEST(RegistryMerge, HistogramsCombineBinWise) {
    obs::Registry a, b;
    a.histogram("h", 0.0, 10.0, 5).observe(1.0);
    b.histogram("h", 0.0, 10.0, 5).observe(1.5);
    b.histogram("h", 0.0, 10.0, 5).observe(42.0);  // overflow
    a.merge(b);
    const auto* h = a.find_histogram("h");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 3u);
    EXPECT_EQ(h->bins().bin_count(0), 2u);
    EXPECT_EQ(h->bins().overflow(), 1u);
    EXPECT_NEAR(h->stats().mean(), (1.0 + 1.5 + 42.0) / 3.0, 1e-12);
    EXPECT_EQ(h->stats().max(), 42.0);
}

TEST(RegistryMerge, HistogramJsonCarriesUnderOverflow) {
    obs::Registry r;
    auto& h = r.histogram("lat", 0.0, 1.0, 4);
    h.observe(-0.5);
    h.observe(0.25);
    h.observe(3.0);
    std::ostringstream os;
    obs::json::Writer w(os, 0);
    r.write_json(w);
    const auto doc = obs::json::parse(os.str());
    const auto* hists = doc.find("histograms");
    ASSERT_NE(hists, nullptr);
    const auto* hist = hists->find("lat");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->number_or("underflow", -1.0), 1.0);
    EXPECT_EQ(hist->number_or("overflow", -1.0), 1.0);
    EXPECT_EQ(hist->number_or("count", -1.0), 3.0);
}

}  // namespace
}  // namespace tibfit
