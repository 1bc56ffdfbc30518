// Differential tests of the one-pass scorers (exp/scoring.h) against the
// events x decisions scans they replaced, kept here verbatim as the
// reference. Logs are seeded and random, with the shapes that make window
// matching delicate: equal window times (on a coarse time grid, so offsets
// land exactly on 0 and on the window edge), decisions outside every
// window, logs out of time order (a failover-merged log before its sort),
// events no decision answers, and empty logs.
#include "exp/scoring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "util/vec2.h"

namespace tibfit::exp {
namespace {

using cluster::DecisionRecord;
using sensor::GeneratedEvent;

// ---- Reference scorers (the pre-index loops) ----

detail::BinaryScore reference_binary(const std::vector<GeneratedEvent>& history,
                                     const std::vector<DecisionRecord>& decisions,
                                     double window) {
    detail::BinaryScore result;
    std::vector<bool> decision_matched(decisions.size(), false);
    for (const auto& ev : history) {
        bool detected = false;
        for (std::size_t d = 0; d < decisions.size(); ++d) {
            if (decision_matched[d]) continue;
            const double dt = decisions[d].window_opened - ev.time;
            if (dt >= 0.0 && dt <= window) {
                decision_matched[d] = true;
                detected = decisions[d].event_declared;
                break;
            }
        }
        if (detected) ++result.detected;
    }
    for (std::size_t d = 0; d < decisions.size(); ++d) {
        if (decision_matched[d]) continue;
        ++result.false_alarm_windows;
        if (decisions[d].event_declared) ++result.phantoms_declared;
    }
    return result;
}

detail::LocationScore reference_location(const std::vector<GeneratedEvent>& history,
                                         const std::vector<DecisionRecord>& decisions,
                                         double match_window, double r_error,
                                         std::size_t epoch_events) {
    detail::LocationScore result;
    std::vector<bool> explained(decisions.size(), false);
    std::vector<bool> event_detected(history.size(), false);
    for (std::size_t e = 0; e < history.size(); ++e) {
        const auto& ev = history[e];
        for (std::size_t d = 0; d < decisions.size(); ++d) {
            const auto& dec = decisions[d];
            if (!dec.has_location) continue;
            const double dt = dec.time - ev.time;
            if (dt < 0.0 || dt > match_window) continue;
            if (util::distance(dec.location, ev.location) > r_error) continue;
            explained[d] = true;
            if (dec.event_declared) event_detected[e] = true;
        }
        if (event_detected[e]) ++result.detected;
    }
    for (std::size_t d = 0; d < decisions.size(); ++d) {
        if (!explained[d] && decisions[d].event_declared) ++result.false_positives;
    }
    if (epoch_events > 0) {
        std::size_t i = 0;
        while (i < event_detected.size()) {
            const std::size_t end = std::min(i + epoch_events, event_detected.size());
            std::size_t hits = 0;
            for (std::size_t j = i; j < end; ++j) hits += event_detected[j] ? 1 : 0;
            result.epoch_accuracy.push_back(static_cast<double>(hits) /
                                            static_cast<double>(end - i));
            i = end;
        }
    }
    return result;
}

void reference_verdicts(std::vector<DecisionRecord>& decisions,
                        const std::vector<cluster::FinalDecision>& finals) {
    for (auto& d : decisions) {
        for (const auto& f : finals) {
            if (f.ch == d.ch && f.seq == d.seq) {
                d.event_declared = f.event_declared;
                break;
            }
        }
    }
}

// ---- Random logs ----

struct Log {
    std::vector<GeneratedEvent> history;
    std::vector<DecisionRecord> decisions;
    double window = 1.0;
};

/// A time on a 0.25 s grid over [0, span): coarse enough that distinct
/// events and decisions share times and offsets hit 0 and the window edge
/// exactly.
double grid_time(util::Rng& rng, double span) {
    return 0.25 * static_cast<double>(rng.uniform_index(static_cast<std::uint64_t>(span * 4.0)));
}

util::Vec2 small_field_point(util::Rng& rng) {
    return {static_cast<double>(rng.uniform_index(6)), static_cast<double>(rng.uniform_index(6))};
}

Log random_log(util::Rng& rng) {
    Log log;
    log.window = 0.25 * static_cast<double>(1 + rng.uniform_index(8));
    const double span = 5.0 + rng.uniform(0.0, 30.0);
    const bool grid = rng.chance(0.7);
    const auto time = [&] { return grid ? grid_time(rng, span) : rng.uniform(0.0, span); };

    const std::size_t n_events = rng.chance(0.1) ? 0 : rng.uniform_index(30);
    for (std::size_t e = 0; e < n_events; ++e) {
        GeneratedEvent ev;
        ev.id = e;
        ev.time = time();
        ev.location = small_field_point(rng);
        log.history.push_back(ev);
    }
    // Generated events are time-ordered; keep most logs that way.
    if (rng.chance(0.8)) {
        std::stable_sort(log.history.begin(), log.history.end(),
                         [](const auto& a, const auto& b) { return a.time < b.time; });
    }

    const std::size_t n_decisions = rng.chance(0.1) ? 0 : rng.uniform_index(60);
    for (std::size_t d = 0; d < n_decisions; ++d) {
        DecisionRecord dec;
        dec.seq = rng.uniform_index(n_decisions + 1);
        dec.window_opened = time();
        if (rng.chance(0.1)) dec.window_opened += span + 10.0;  // past every window
        if (rng.chance(0.05)) dec.window_opened -= span + 10.0;  // before every event
        dec.time = dec.window_opened + (grid ? grid_time(rng, 2.0) : rng.uniform(0.0, 2.0));
        dec.event_declared = rng.chance(0.6);
        dec.has_location = rng.chance(0.8);
        dec.location = small_field_point(rng);
        log.decisions.push_back(dec);
    }
    // Half the logs stay in CH order (time-sorted); the rest model a merged
    // failover log before its sort: two time-sorted halves back to back, or
    // no order at all.
    std::stable_sort(log.decisions.begin(), log.decisions.end(),
                     [](const auto& a, const auto& b) { return a.time < b.time; });
    if (rng.chance(0.25)) {
        std::rotate(log.decisions.begin(),
                    log.decisions.begin() + static_cast<std::ptrdiff_t>(
                                                rng.uniform_index(log.decisions.size() + 1)),
                    log.decisions.end());
    } else if (rng.chance(0.33)) {
        for (std::size_t i = log.decisions.size(); i > 1; --i) {
            std::swap(log.decisions[i - 1], log.decisions[rng.uniform_index(i)]);
        }
    }
    return log;
}

constexpr int kLogs = 3000;

TEST(Scoring, BinaryMatchesTheReferenceScan) {
    util::Rng rng(1105);
    std::size_t claimed_by_reference = 0;
    for (int i = 0; i < kLogs; ++i) {
        const Log log = random_log(rng);
        const detail::BinaryScore want = reference_binary(log.history, log.decisions, log.window);
        const detail::BinaryScore got =
            detail::score_binary(log.history, log.decisions, log.window);
        ASSERT_EQ(got.detected, want.detected) << "log " << i;
        ASSERT_EQ(got.false_alarm_windows, want.false_alarm_windows) << "log " << i;
        ASSERT_EQ(got.phantoms_declared, want.phantoms_declared) << "log " << i;
        claimed_by_reference += log.decisions.size() - want.false_alarm_windows;
    }
    EXPECT_GT(claimed_by_reference, 0u);  // the logs do exercise matching
}

TEST(Scoring, LocationMatchesTheReferenceScan) {
    util::Rng rng(1106);
    std::size_t explained_events = 0;
    for (int i = 0; i < kLogs; ++i) {
        const Log log = random_log(rng);
        const double r_error = static_cast<double>(rng.uniform_index(4));
        const std::size_t epoch_events = rng.uniform_index(8);
        const detail::LocationScore want =
            reference_location(log.history, log.decisions, log.window, r_error, epoch_events);
        const detail::LocationScore got =
            detail::score_location(log.history, log.decisions, log.window, r_error, epoch_events);
        ASSERT_EQ(got.detected, want.detected) << "log " << i;
        ASSERT_EQ(got.false_positives, want.false_positives) << "log " << i;
        ASSERT_EQ(got.epoch_accuracy, want.epoch_accuracy) << "log " << i;
        explained_events += want.detected;
    }
    EXPECT_GT(explained_events, 0u);
}

TEST(Scoring, StationVerdictsMatchTheReferenceScan) {
    util::Rng rng(1107);
    for (int i = 0; i < kLogs; ++i) {
        Log log = random_log(rng);
        // Two CHs (a failover log), each numbering its decisions from 0.
        for (auto& d : log.decisions) d.ch = static_cast<sim::ProcessId>(rng.uniform_index(2));
        std::vector<cluster::FinalDecision> finals(rng.uniform_index(40));
        for (auto& f : finals) {
            f.ch = static_cast<sim::ProcessId>(rng.uniform_index(2));
            f.seq = rng.uniform_index(30);  // repeats, and seqs no decision has
            f.event_declared = rng.chance(0.5);
        }
        std::vector<DecisionRecord> want = log.decisions;
        reference_verdicts(want, finals);
        std::vector<DecisionRecord> got = log.decisions;
        detail::apply_station_verdicts(got, finals);
        for (std::size_t d = 0; d < got.size(); ++d) {
            ASSERT_EQ(got[d].event_declared, want[d].event_declared) << "log " << i;
        }
    }
}

TEST(Scoring, StationVerdictsApplyOnlyToTheirCh) {
    // Two CHs share seqs 0..4 (each numbers its decisions from 0); the
    // station voted on CH 7's decisions only, overturning each one.
    std::vector<DecisionRecord> decisions;
    for (const sim::ProcessId ch : {7u, 9u}) {
        for (std::uint64_t seq = 0; seq < 5; ++seq) {
            DecisionRecord d;
            d.ch = ch;
            d.seq = seq;
            d.event_declared = seq % 2 == 0;
            decisions.push_back(d);
        }
    }
    std::vector<cluster::FinalDecision> finals;
    for (std::uint64_t seq = 0; seq < 5; ++seq) {
        cluster::FinalDecision f;
        f.ch = 7;
        f.seq = seq;
        f.event_declared = seq % 2 != 0;
        finals.push_back(f);
    }
    std::vector<DecisionRecord> got = decisions;
    detail::apply_station_verdicts(got, finals);
    for (std::size_t d = 0; d < got.size(); ++d) {
        const bool overturned = got[d].event_declared != decisions[d].event_declared;
        EXPECT_EQ(overturned, got[d].ch == 7) << "ch " << got[d].ch << " seq " << got[d].seq;
    }
}

TEST(Scoring, TiedWindowsGoToTheLowestIndex) {
    // Decision 1 opens its window before decision 0, but the scan has
    // always claimed in log order: the event takes decision 0.
    std::vector<GeneratedEvent> history(1);
    history[0].time = 10.0;
    std::vector<DecisionRecord> decisions(2);
    decisions[0].window_opened = 10.5;
    decisions[0].event_declared = false;
    decisions[1].window_opened = 10.0;
    decisions[1].event_declared = true;
    const detail::BinaryScore s = detail::score_binary(history, decisions, 1.0);
    EXPECT_EQ(s.detected, 0u);
    EXPECT_EQ(s.false_alarm_windows, 1u);
    EXPECT_EQ(s.phantoms_declared, 1u);
}

TEST(Scoring, WindowBoundsAreInclusive) {
    std::vector<DecisionRecord> decisions(4);
    decisions[0].window_opened = 9.75;  // before the event
    decisions[1].window_opened = 10.0;  // offset 0
    decisions[2].window_opened = 11.0;  // offset == window
    decisions[3].window_opened = 11.25;
    const detail::DecisionWindows windows(
        decisions, [](const DecisionRecord& d) { return d.window_opened; });
    const auto run = windows.within(10.0, 1.0);
    EXPECT_EQ(std::vector<std::size_t>(run.begin(), run.end()),
              (std::vector<std::size_t>{1, 2}));
    EXPECT_TRUE(windows.within(20.0, 1.0).empty());
    EXPECT_TRUE(detail::DecisionWindows({}, [](const DecisionRecord& d) { return d.time; })
                    .within(0.0, 1.0)
                    .empty());
}

}  // namespace
}  // namespace tibfit::exp
