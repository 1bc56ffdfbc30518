#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/simulator.h"

namespace tibfit::sim {
namespace {

/// Pops and runs the earliest event of `q`; returns its time.
Time run_one(EventQueue& q) {
    Time now = 0.0;
    q.run_next(now);
    return now;
}

TEST(EventQueue, EmptyBehaviour) {
    EventQueue q;
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
    EXPECT_THROW(q.next_time(), std::logic_error);
    EXPECT_THROW(run_one(q), std::logic_error);
}

TEST(EventQueue, PopsInTimeOrder) {
    EventQueue q;
    std::vector<int> order;
    q.push(3.0, [&] { order.push_back(3); });
    q.push(1.0, [&] { order.push_back(1); });
    q.push(2.0, [&] { order.push_back(2); });
    while (!q.empty()) run_one(q);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, StableAtSameTime) {
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        q.push(1.0, [&order, i] { order.push_back(i); });
    }
    while (!q.empty()) run_one(q);
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelSkipsEvent) {
    EventQueue q;
    int fired = 0;
    q.push(1.0, [&] { ++fired; });
    const EventId id = q.push(2.0, [&] { fired += 10; });
    q.push(3.0, [&] { ++fired; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));  // double cancel
    EXPECT_EQ(q.size(), 2u);
    while (!q.empty()) run_one(q);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RejectsEmptyAction) {
    EventQueue q;
    EXPECT_THROW(q.push(1.0, std::function<void()>{}), std::invalid_argument);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, CancelAfterPopIsRejected) {
    EventQueue q;
    const EventId id = q.push(1.0, [] {});
    q.push(2.0, [] {});
    run_one(q);  // executes id
    EXPECT_FALSE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));  // and again
    // live_ must not have underflowed: exactly one runnable event remains.
    EXPECT_EQ(q.size(), 1u);
    EXPECT_FALSE(q.empty());
    run_one(q);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DoubleCancelKeepsSizeConsistent) {
    EventQueue q;
    const EventId a = q.push(1.0, [] {});
    q.push(2.0, [] {});
    EXPECT_TRUE(q.cancel(a));
    for (int i = 0; i < 3; ++i) EXPECT_FALSE(q.cancel(a));
    EXPECT_EQ(q.size(), 1u);
    run_one(q);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, CancelUnknownIdIsRejected) {
    EventQueue q;
    EXPECT_FALSE(q.cancel(0));
    EXPECT_FALSE(q.cancel(12345));
    q.push(1.0, [] {});
    EXPECT_FALSE(q.cancel(999));
    EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, ActionCancellingItselfWhilePoppedIsANoOp) {
    // Same-instant hazard: the action of the event being executed cancels
    // its own id (e.g. a handler tearing down its own timer).
    EventQueue q;
    EventId self = 0;
    int fired = 0;
    self = q.push(1.0, [&] {
        EXPECT_FALSE(q.cancel(self));
        ++fired;
    });
    q.push(1.0, [&] { ++fired; });  // same instant, must still run
    while (!q.empty()) run_one(q);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, CancelOtherEventAtSameInstant) {
    EventQueue q;
    int fired = 0;
    EventId second = 0;
    q.push(1.0, [&] {
        ++fired;
        EXPECT_TRUE(q.cancel(second));
        EXPECT_FALSE(q.cancel(second));  // double-cancel inside the action
    });
    second = q.push(1.0, [&] { fired += 100; });
    while (!q.empty()) run_one(q);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelledHeadDoesNotBlockNextTime) {
    EventQueue q;
    const EventId id = q.push(1.0, [] {});
    q.push(2.0, [] {});
    q.cancel(id);
    EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

/// Records a popped event's tag (its reference seq) in the log `target`
/// points to.
void log_tag(void*, void* target, double tag) {
    static_cast<std::vector<std::uint64_t>*>(target)->push_back(static_cast<std::uint64_t>(tag));
}

// Differential test of the heap against the order it must reproduce: a
// std::set of (at, seq), where seq counts pushes as the queue's keys do.
// std::pair compares with < only, so -0.0 and +0.0 are equivalent there and
// tie on seq, as the queue's lexicographic compare always did.
TEST(EventQueue, MatchesOrderedReferenceUnderRandomOperations) {
    constexpr Time kInf = std::numeric_limits<Time>::infinity();
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        std::mt19937_64 rng(seed);
        const auto draw = [&rng](std::uint64_t n) { return rng() % n; };
        EventQueue q;
        std::set<std::pair<Time, std::uint64_t>> ref;
        std::vector<std::pair<EventId, std::uint64_t>> timers;  // (id, seq), any state
        std::map<std::uint64_t, Time> timer_at;                  // pending timers: seq -> at
        std::vector<std::uint64_t> log;
        std::uint64_t next_seq = 0;
        Time now = 0.0;
        Time last_at = 0.0;
        std::size_t pops = 0, zero_ties = 0;  // zero_ties: -0.0 and +0.0 popped in turn
        int op = 0;
        // Only signed zeros for the first kZeroOps operations, +inf now and
        // then, otherwise the clock plus a coarse offset: equal times are
        // common.
        constexpr int kZeroOps = 300;
        const auto pick_time = [&]() -> Time {
            if (draw(16) == 0) return kInf;
            if (op < kZeroOps) return draw(2) == 0 ? -0.0 : 0.0;
            return now + 0.5 * static_cast<double>(draw(6));
        };
        const auto pop = [&] {
            ASSERT_FALSE(ref.empty());
            const auto [at, seq] = *ref.begin();
            ref.erase(ref.begin());
            timer_at.erase(seq);
            const std::size_t logged = log.size();
            q.run_next(now);
            ASSERT_EQ(log.size(), logged + 1) << "seed " << seed;
            ASSERT_EQ(log.back(), seq) << "seed " << seed << " pop " << pops;
            // Bitwise: a -0.0 event must not be reported as +0.0.
            ASSERT_EQ(std::signbit(now), std::signbit(at)) << "seed " << seed;
            ASSERT_EQ(now, at) << "seed " << seed;
            if (pops > 0 && at == 0.0 && last_at == 0.0 && std::signbit(at) != std::signbit(last_at)) {
                ++zero_ties;
            }
            last_at = at;
            ++pops;
        };
        for (; op < 8000; ++op) {
            switch (draw(10)) {
                case 0:
                case 1:
                case 2: {
                    const Time at = pick_time();
                    const std::uint64_t seq = next_seq++;
                    timers.emplace_back(q.push(at, [&log, seq] { log.push_back(seq); }), seq);
                    timer_at.emplace(seq, at);
                    ref.emplace(at, seq);
                    break;
                }
                case 3: {
                    // Any timer ever pushed: pending, popped or cancelled.
                    if (timers.empty()) break;
                    const auto [id, seq] = timers[draw(timers.size())];
                    const auto it = timer_at.find(seq);
                    const bool pending = it != timer_at.end();
                    ASSERT_EQ(q.cancel(id), pending) << "seed " << seed << " op " << op;
                    if (pending) {
                        ref.erase({it->second, seq});
                        timer_at.erase(it);
                    }
                    break;
                }
                case 4: {
                    std::vector<FanoutItem> items(static_cast<std::size_t>(1 + draw(8)));
                    for (FanoutItem& item : items) {
                        const std::uint64_t seq = next_seq++;
                        item = FanoutItem{pick_time(), &log, static_cast<double>(seq)};
                        ref.emplace(item.at, seq);
                    }
                    q.push_fanout(&log_tag, std::make_shared<int>(0), items);
                    break;
                }
                default:
                    // Leave +inf to the final drain, so the clock stays finite.
                    if (!ref.empty() && ref.begin()->first != kInf) pop();
                    break;
            }
            if (HasFatalFailure()) return;
            ASSERT_EQ(q.size(), ref.size()) << "seed " << seed << " op " << op;
            ASSERT_EQ(q.empty(), ref.empty());
            if (!ref.empty()) {
                ASSERT_EQ(q.next_time(), ref.begin()->first);
            }
        }
        while (!ref.empty()) {
            pop();
            if (HasFatalFailure()) return;
        }
        EXPECT_TRUE(q.empty());
        EXPECT_GT(pops, 5000u) << "the operation mix should keep the queue busy";
        EXPECT_GT(zero_ties, 0u) << "signed-zero ties should occur";
        EXPECT_EQ(now, kInf) << "+inf events pop last";
    }
}

TEST(Simulator, ClockAdvancesMonotonically) {
    Simulator s;
    std::vector<double> times;
    s.schedule(2.0, [&] { times.push_back(s.now()); });
    s.schedule(1.0, [&] { times.push_back(s.now()); });
    s.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_DOUBLE_EQ(times[0], 1.0);
    EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(Simulator, RejectsPastAndNegative) {
    Simulator s;
    EXPECT_THROW(s.schedule(-1.0, [] {}), std::invalid_argument);
    s.schedule(5.0, [] {});
    s.run();
    EXPECT_THROW(s.schedule_at(1.0, [] {}), std::invalid_argument);
    EXPECT_THROW(s.schedule(0.5, std::function<void()>{}), std::invalid_argument);
}

TEST(Simulator, NestedScheduling) {
    Simulator s;
    std::vector<int> order;
    s.schedule(1.0, [&] {
        order.push_back(1);
        s.schedule(1.0, [&] { order.push_back(3); });
        s.schedule(0.5, [&] { order.push_back(2); });
    });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(s.now(), 2.0);
}

TEST(Simulator, ZeroDelayRunsAtCurrentTime) {
    Simulator s;
    bool ran = false;
    s.schedule(1.0, [&] {
        s.schedule(0.0, [&] {
            ran = true;
            EXPECT_DOUBLE_EQ(s.now(), 1.0);
        });
    });
    s.run();
    EXPECT_TRUE(ran);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
    Simulator s;
    int fired = 0;
    for (int i = 1; i <= 10; ++i) {
        s.schedule(static_cast<double>(i), [&] { ++fired; });
    }
    const std::size_t ran = s.run_until(5.0);
    EXPECT_EQ(ran, 5u);
    EXPECT_EQ(fired, 5);
    EXPECT_DOUBLE_EQ(s.now(), 5.0);
    EXPECT_EQ(s.pending(), 5u);
    s.run();
    EXPECT_EQ(fired, 10);
}

TEST(Simulator, RunUntilAdvancesClockOnEmptyQueue) {
    Simulator s;
    s.run_until(42.0);
    EXPECT_DOUBLE_EQ(s.now(), 42.0);
}

TEST(Simulator, CancelTimer) {
    Simulator s;
    bool fired = false;
    Timer t = s.schedule(1.0, [&] { fired = true; });
    EXPECT_TRUE(t.armed());
    EXPECT_TRUE(s.cancel(t));
    EXPECT_FALSE(t.armed());
    EXPECT_FALSE(s.cancel(t));
    s.run();
    EXPECT_FALSE(fired);
}

TEST(Simulator, ExecutedCounter) {
    Simulator s;
    for (int i = 0; i < 7; ++i) s.schedule(1.0, [] {});
    s.run();
    EXPECT_EQ(s.executed(), 7u);
    EXPECT_TRUE(s.idle());
}

TEST(Simulator, StepSingleEvent) {
    Simulator s;
    int fired = 0;
    s.schedule(1.0, [&] { ++fired; });
    s.schedule(2.0, [&] { ++fired; });
    EXPECT_TRUE(s.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(s.step());
    EXPECT_FALSE(s.step());
    EXPECT_EQ(fired, 2);
}

// --- Slot-recycling regressions (arena event queue) ------------------------

TEST(EventQueue, SlotCountTracksConcurrentNotTotalEvents) {
    // A million sequential events through a depth-8 queue must not grow the
    // arena past the high-water mark: slots are recycled, not appended.
    EventQueue q;
    int fired = 0;
    for (int round = 0; round < 1000; ++round) {
        for (int i = 0; i < 8; ++i) q.push(static_cast<Time>(i), [&] { ++fired; });
        while (!q.empty()) run_one(q);
    }
    EXPECT_EQ(fired, 8000);
    EXPECT_LE(q.slot_count(), 8u);
}

TEST(EventQueue, CancelChurnKeepsSlotCountBounded) {
    EventQueue q;
    for (int round = 0; round < 500; ++round) {
        std::vector<EventId> ids;
        for (int i = 0; i < 16; ++i) {
            ids.push_back(q.push(static_cast<Time>(i), [] {}));
        }
        for (std::size_t i = 0; i < ids.size(); i += 2) EXPECT_TRUE(q.cancel(ids[i]));
        while (!q.empty()) run_one(q);
    }
    EXPECT_LE(q.slot_count(), 16u);
}

TEST(EventQueue, StaleIdCannotCancelRecycledSlot) {
    // After an event is popped its slot is recycled by the next push; the
    // old id must be rejected (generation check), and cancelling the NEW id
    // must still work.
    EventQueue q;
    const EventId old_id = q.push(1.0, [] {});
    run_one(q);
    EXPECT_TRUE(q.empty());

    int fired = 0;
    const EventId new_id = q.push(2.0, [&] { ++fired; });
    EXPECT_EQ(q.slot_count(), 1u) << "the popped slot should have been recycled";
    EXPECT_FALSE(q.cancel(old_id)) << "stale id must not cancel the slot's next tenant";
    EXPECT_EQ(q.size(), 1u);
    EXPECT_TRUE(q.cancel(new_id));
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(fired, 0);
}

TEST(EventQueue, StaleIdFromCancelledEventCannotCancelRecycledSlot) {
    EventQueue q;
    const EventId a = q.push(1.0, [] {});
    EXPECT_TRUE(q.cancel(a));
    int fired = 0;
    q.push(1.0, [&] { ++fired; });  // reuses a's slot
    EXPECT_FALSE(q.cancel(a));
    while (!q.empty()) run_one(q);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelAndRepushPreservesDeterministicOrdering) {
    // Cancelling and re-pushing at the same instant must keep same-instant
    // ordering purely by scheduling sequence, independent of which arena
    // slots got recycled.
    EventQueue q;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 6; ++i) {
        ids.push_back(q.push(1.0, [&order, i] { order.push_back(i); }));
    }
    // Cancel 1, 3, 5 and re-push replacements 10, 11, 12 (same time): they
    // were scheduled later, so they run after the survivors 0, 2, 4.
    for (int i = 1; i < 6; i += 2) EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));
    for (int i = 10; i < 13; ++i) q.push(1.0, [&order, i] { order.push_back(i); });
    while (!q.empty()) run_one(q);
    EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 10, 11, 12}));
}

TEST(EventCallback, LargeCapturesFallBackToHeap) {
    // Captures past the inline budget still work (one heap allocation,
    // std::function-style).
    struct Big {
        double data[32];
    };
    Big big{};
    big.data[0] = 1.0;
    big.data[31] = 2.0;
    double sum = 0.0;
    EventCallback cb([big, &sum] { sum = big.data[0] + big.data[31]; });
    EventCallback moved = std::move(cb);
    EXPECT_FALSE(static_cast<bool>(cb));
    ASSERT_TRUE(static_cast<bool>(moved));
    moved();
    EXPECT_EQ(sum, 3.0);
}

TEST(EventCallback, NonTriviallyCopyableCapturesRelocateCorrectly) {
    // A vector capture exercises the non-trivial relocate/destroy vtable
    // entries (move constructor + destructor, not memcpy).
    std::vector<int> payload{1, 2, 3};
    int total = 0;
    EventCallback cb([payload, &total] {
        for (int x : payload) total += x;
    });
    EventCallback moved = std::move(cb);
    EventCallback assigned;
    assigned = std::move(moved);
    assigned();
    EXPECT_EQ(total, 6);
}

/// Invokes `cb`, whose callable stores its own address into `where`, and
/// reports whether that callable lives inside `cb` (the inline buffer)
/// rather than in a separate heap block.
bool ran_inline(EventCallback& cb, const void* const& where) {
    cb();
    const auto lo = reinterpret_cast<std::uintptr_t>(&cb);
    const auto p = reinterpret_cast<std::uintptr_t>(where);
    return p >= lo && p < lo + sizeof(cb);
}

TEST(EventCallback, StoresInlineMatchesWhereTheCallableLives) {
    const void* where = nullptr;
    const void** out = &where;

    std::array<unsigned char, EventCallback::kInlineSize - sizeof(out)> fill{};
    auto fits = [fill, out] { *out = &fill; };
    static_assert(sizeof(fits) == EventCallback::kInlineSize);
    static_assert(EventCallback::stores_inline<decltype(fits)>);

    std::array<unsigned char, EventCallback::kInlineSize - sizeof(out) + 1> spill{};
    auto too_big = [spill, out] { *out = &spill; };
    static_assert(!EventCallback::stores_inline<decltype(too_big)>);

    struct alignas(2 * alignof(std::max_align_t)) Wide {
        unsigned char bytes[8];
    };
    Wide wide{};
    auto over_aligned = [wide, out] { *out = &wide; };
    static_assert(sizeof(over_aligned) <= EventCallback::kInlineSize);
    static_assert(!EventCallback::stores_inline<decltype(over_aligned)>);

    EventCallback a(fits), b(too_big), c(over_aligned);
    EXPECT_TRUE(ran_inline(a, where));
    EXPECT_FALSE(ran_inline(b, where));
    EXPECT_FALSE(ran_inline(c, where));
}

TEST(Simulator, ScheduleForwardsEventCallbacksAndLvalueLambdas) {
    Simulator s;
    std::vector<int> order;
    EventCallback cb([&order] { order.push_back(1); });
    auto lambda = [&order] { order.push_back(2); };
    s.schedule(0.1, std::move(cb));
    s.schedule_at(0.2, lambda);
    s.schedule(0.3, lambda);  // an lvalue is copied, not consumed
    EXPECT_THROW(s.schedule(0.5, EventCallback{}), std::invalid_argument);
    EXPECT_THROW(s.schedule_at(-1.0, lambda), std::invalid_argument);
    EXPECT_EQ(s.pending(), 3u);
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 2}));
}

TEST(Simulator, RejectsNaNTimes) {
    // NaN compares false against everything, so `delay < 0.0` and
    // `at < now` would let it in and break the queue's strict weak order.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    Simulator s;
    EXPECT_THROW(s.schedule(nan, [] {}), std::invalid_argument);
    EXPECT_THROW(s.schedule_at(nan, [] {}), std::invalid_argument);
    int target = 0;
    const FanoutHandler handler = [](void*, void*, double) {};
    const std::vector<FanoutItem> items{{1.0, &target, 0.0}, {nan, &target, 1.0}};
    EXPECT_THROW(s.schedule_fanout(handler, nullptr, items), std::invalid_argument);
    EXPECT_EQ(s.pending(), 0u);  // a rejected fan-out schedules none of its items
    EXPECT_TRUE(s.idle());
}

// --- Fan-outs ---------------------------------------------------------------

/// Fan-out handler for the tests: appends (arg, now) to the log `target`
/// points at. The body is unused.
struct FanoutLog {
    Simulator* sim;
    std::vector<std::pair<double, Time>> runs;
};

void log_delivery(void*, void* target, double arg) {
    auto* log = static_cast<FanoutLog*>(target);
    log->runs.emplace_back(arg, log->sim->now());
}

TEST(Simulator, FanoutItemsAreEventsInScheduleOrder) {
    Simulator s;
    FanoutLog log{&s, {}};
    s.schedule_at(1.0, [&] { log.runs.emplace_back(-1.0, s.now()); });
    // Unsorted, with ties among the items and with the timers around them.
    const std::vector<FanoutItem> items{
        {2.0, &log, 0.0}, {1.0, &log, 1.0}, {1.5, &log, 2.0}, {1.0, &log, 3.0}, {2.0, &log, 4.0}};
    s.schedule_fanout(&log_delivery, nullptr, items);
    s.schedule_at(1.0, [&] { log.runs.emplace_back(-2.0, s.now()); });
    EXPECT_EQ(s.pending(), 7u);
    EXPECT_EQ(s.queue_high_water(), 7u);
    EXPECT_TRUE(s.step());
    EXPECT_EQ(s.executed(), 1u);
    EXPECT_EQ(s.pending(), 6u);
    s.run();
    EXPECT_EQ(s.executed(), 7u);
    const std::vector<std::pair<double, Time>> expected{
        {-1.0, 1.0}, {1.0, 1.0}, {3.0, 1.0}, {-2.0, 1.0}, {2.0, 1.5}, {0.0, 2.0}, {4.0, 2.0}};
    EXPECT_EQ(log.runs, expected);
}

TEST(Simulator, FanoutValidatesLikeScheduleAt) {
    Simulator s;
    FanoutLog log{&s, {}};
    s.schedule(1.0, [] {});
    s.run();
    const std::vector<FanoutItem> past{{2.0, &log, 0.0}, {0.5, &log, 1.0}};
    EXPECT_THROW(s.schedule_fanout(&log_delivery, nullptr, past), std::invalid_argument);
    const std::vector<FanoutItem> now{{1.0, &log, 0.0}};
    EXPECT_THROW(s.schedule_fanout(nullptr, nullptr, now), std::invalid_argument);
    EXPECT_EQ(s.pending(), 0u);
    s.schedule_fanout(&log_delivery, nullptr, {});  // nothing to schedule
    s.schedule_fanout(&log_delivery, nullptr, now);  // at now() is allowed
    EXPECT_EQ(s.run(), 1u);
}

TEST(Simulator, RejectedFanoutLeavesQueueAndOrderUntouched) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    // The same schedule twice; `rejecting` also tries two fan-outs with a
    // bad item in the middle of the span.
    const auto run = [nan](bool rejecting) {
        Simulator s;
        FanoutLog log{&s, {}};
        s.schedule(1.0, [] {});
        s.run();
        s.schedule_at(2.0, [&] { log.runs.emplace_back(-1.0, s.now()); });
        const std::vector<FanoutItem> first{{2.0, &log, 1.0}, {2.0, &log, 2.0}};
        s.schedule_fanout(&log_delivery, nullptr, first);
        if (rejecting) {
            const std::vector<FanoutItem> with_nan{
                {2.0, &log, 10.0}, {nan, &log, 11.0}, {2.0, &log, 12.0}};
            EXPECT_THROW(s.schedule_fanout(&log_delivery, nullptr, with_nan),
                         std::invalid_argument);
            EXPECT_EQ(s.pending(), 3u);
            const std::vector<FanoutItem> with_past{
                {2.0, &log, 13.0}, {0.5, &log, 14.0}, {3.0, &log, 15.0}};
            EXPECT_THROW(s.schedule_fanout(&log_delivery, nullptr, with_past),
                         std::invalid_argument);
            EXPECT_EQ(s.pending(), 3u);
        }
        // Same-instant pushes after the rejections keep their order.
        s.schedule_at(2.0, [&] { log.runs.emplace_back(-2.0, s.now()); });
        const std::vector<FanoutItem> second{{2.0, &log, 3.0}};
        s.schedule_fanout(&log_delivery, nullptr, second);
        EXPECT_EQ(s.pending(), 5u);
        s.run();
        return log.runs;
    };
    const std::vector<std::pair<double, Time>> expected{
        {-1.0, 2.0}, {1.0, 2.0}, {2.0, 2.0}, {-2.0, 2.0}, {3.0, 2.0}};
    EXPECT_EQ(run(false), expected);
    EXPECT_EQ(run(true), expected);
}

TEST(EventQueue, RejectedFanoutUsesNoSeq) {
    // A rejected fan-out (an item before not_before) consumes no seq: the
    // next push gets the id it would have got without it.
    const auto next_id = [](bool rejecting) {
        EventQueue q;
        int target = 0;
        q.push(1.0, [] {});
        if (rejecting) {
            const std::vector<FanoutItem> items{{2.0, &target, 0.0}, {0.5, &target, 1.0}};
            EXPECT_THROW(q.push_fanout(&log_tag, nullptr, items, 1.0), std::invalid_argument);
            EXPECT_EQ(q.size(), 1u);
        }
        return q.push(1.0, [] {});
    };
    EXPECT_EQ(next_id(true), next_id(false));
}

TEST(Simulator, FanoutBodyLivesUntilItsLastItemRuns) {
    std::weak_ptr<int> watch;
    bool alive_in_last = false;
    {
        Simulator s;
        auto body = std::make_shared<int>(7);
        watch = body;
        struct Probe {
            std::weak_ptr<int>* watch;
            bool* alive_in_last;
        } probe{&watch, &alive_in_last};
        const FanoutHandler handler = [](void* b, void* target, double arg) {
            auto* p = static_cast<Probe*>(target);
            if (arg == 1.0) *p->alive_in_last = !p->watch->expired() && *static_cast<int*>(b) == 7;
        };
        const std::vector<FanoutItem> items{{1.0, &probe, 0.0}, {2.0, &probe, 1.0}};
        s.schedule_fanout(handler, std::move(body), items);
        s.step();
        EXPECT_FALSE(watch.expired());
        s.step();
        EXPECT_TRUE(alive_in_last);
        EXPECT_TRUE(watch.expired());

        // A simulator destroyed with a fan-out pending releases its body.
        body = std::make_shared<int>(8);
        watch = body;
        const std::vector<FanoutItem> later{{3.0, &probe, 0.0}, {4.0, &probe, 1.0}};
        s.schedule_fanout(handler, std::move(body), later);
        s.run_until(3.5);
        EXPECT_FALSE(watch.expired());
    }
    EXPECT_TRUE(watch.expired());
}

/// One side of the differential test: a Simulator driven by a shared
/// operation stream. The reference side (`split`) schedules every fan-out
/// item with its own schedule_at, in item order; the other side schedules
/// the same items with schedule_fanout. Deliveries may schedule further
/// fan-outs and timers, so fan-outs are also pushed while others drain.
class DifferentialSide {
  public:
    explicit DifferentialSide(bool split) : split_(split) {}

    Simulator sim;
    std::vector<std::pair<std::uint64_t, Time>> log;  ///< (event id, time) in run order
    std::vector<Timer> timers;                        ///< every timer ever scheduled

    void timer(Time delay) {
        const std::uint64_t id = next_id_++;
        timers.push_back(sim.schedule(delay, [this, id] { record(id); }));
    }

    void timer_at(Time at) {
        const std::uint64_t id = next_id_++;
        timers.push_back(sim.schedule_at(at, [this, id] { record(id); }));
    }

    /// Schedules `offsets.size()` events at now() + offset, as one fan-out.
    void fanout(const std::vector<Time>& offsets) {
        std::vector<FanoutItem> items;
        for (Time offset : offsets) {
            items.push_back(FanoutItem{sim.now() + offset, this, static_cast<double>(next_id_++)});
        }
        if (!split_) {
            sim.schedule_fanout(&deliver, nullptr, items);
            return;
        }
        for (const FanoutItem& item : items) {
            sim.schedule_at(item.at, [this, id = item.arg] { deliver(nullptr, this, id); });
        }
    }

  private:
    static void deliver(void*, void* target, double arg) {
        static_cast<DifferentialSide*>(target)->record(static_cast<std::uint64_t>(arg));
    }

    /// Logs the event; some events schedule more work, derived from the id
    /// alone so both sides do the same.
    void record(std::uint64_t id) {
        log.emplace_back(id, sim.now());
        if (id % 11 == 0) {
            std::vector<Time> offsets;
            for (std::uint64_t k = 0; k < id % 7 + 1; ++k) {
                offsets.push_back(0.25 * static_cast<double>((id + k) % 3));
            }
            fanout(offsets);
        } else if (id % 13 == 0) {
            timer(0.25 * static_cast<double>(id % 4));
        }
    }

    bool split_;
    std::uint64_t next_id_ = 0;
};

TEST(Simulator, FanoutMatchesIndividualSchedulingUnderRandomOperations) {
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        std::mt19937_64 rng(seed);
        const auto draw = [&rng](std::uint64_t n) { return rng() % n; };
        // Times on a coarse grid, so ties between timers, fan-out items and
        // nested events are common.
        const auto grid = [&draw](std::uint64_t steps) {
            return 0.25 * static_cast<double>(draw(steps));
        };
        DifferentialSide ref(true), fan(false);
        std::size_t checked = 0;
        for (int op = 0; op < 4000; ++op) {
            switch (draw(6)) {
                case 0: {
                    const Time delay = grid(12);
                    ref.timer(delay);
                    fan.timer(delay);
                    break;
                }
                case 1: {
                    const Time at = ref.sim.now() + grid(12);
                    ref.timer_at(at);
                    fan.timer_at(at);
                    break;
                }
                case 2: {
                    // Any timer ever scheduled: pending, fired, cancelled or
                    // with a recycled slot. A copy keeps the handle armed, so
                    // stale ids reach the queue too.
                    if (ref.timers.empty()) break;
                    const auto i = static_cast<std::size_t>(draw(ref.timers.size()));
                    Timer a = ref.timers[i], b = fan.timers[i];
                    ASSERT_EQ(ref.sim.cancel(a), fan.sim.cancel(b)) << "seed " << seed;
                    break;
                }
                case 3: {
                    std::vector<Time> offsets(static_cast<std::size_t>(1 + draw(120)));
                    for (Time& o : offsets) o = grid(8);
                    // Besides shuffled times: presorted ones (push_fanout's
                    // no-sort path), reverse-sorted and all-equal ones.
                    switch (draw(4)) {
                        case 0: std::sort(offsets.begin(), offsets.end()); break;
                        case 1: std::sort(offsets.rbegin(), offsets.rend()); break;
                        case 2: std::fill(offsets.begin(), offsets.end(), offsets.front()); break;
                        default: break;
                    }
                    ref.fanout(offsets);
                    fan.fanout(offsets);
                    break;
                }
                default: {
                    const Time deadline = ref.sim.now() + grid(6);
                    ASSERT_EQ(ref.sim.run_until(deadline), fan.sim.run_until(deadline));
                    break;
                }
            }
            ASSERT_EQ(ref.sim.executed(), fan.sim.executed()) << "seed " << seed << " op " << op;
            ASSERT_EQ(ref.sim.pending(), fan.sim.pending()) << "seed " << seed << " op " << op;
            ASSERT_EQ(ref.sim.queue_high_water(), fan.sim.queue_high_water())
                << "seed " << seed << " op " << op;
            ASSERT_EQ(ref.sim.now(), fan.sim.now());
            ASSERT_EQ(ref.log.size(), fan.log.size()) << "seed " << seed << " op " << op;
            for (; checked < ref.log.size(); ++checked) {
                ASSERT_EQ(ref.log[checked], fan.log[checked]) << "seed " << seed << " op " << op;
            }
        }
        ref.sim.run();
        fan.sim.run();
        EXPECT_EQ(ref.log, fan.log) << "seed " << seed;
        EXPECT_EQ(ref.sim.executed(), fan.sim.executed());
        EXPECT_GT(ref.sim.executed(), 10000u) << "the operation mix should keep the queue busy";
    }
}

}  // namespace
}  // namespace tibfit::sim
