// The discrete-event simulator: virtual clock + future event list.
// Replaces ns-2 as the scheduling substrate (see DESIGN.md §2).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "sim/body_pool.h"
#include "sim/event_queue.h"

namespace tibfit::sim {

/// A cancellable timer handle. Default-constructed handles are inert.
class Timer {
  public:
    Timer() = default;

    bool armed() const { return armed_; }

  private:
    friend class Simulator;
    Timer(EventId id, bool armed) : id_(id), armed_(armed) {}
    EventId id_ = 0;
    bool armed_ = false;
};

/// Single-threaded virtual-time event scheduler.
///
/// Invariants: time never decreases; actions scheduled for the same instant
/// run in the order they were scheduled; an action may schedule further
/// actions at or after the current time.
class Simulator {
  public:
    Simulator() = default;
    Simulator(const Simulator&) = delete;
    Simulator& operator=(const Simulator&) = delete;

    /// Current virtual time.
    Time now() const { return now_; }

    /// Schedules `action` after `delay` (>= 0) from now. A lambda is
    /// constructed directly in its event-arena slot, and small closures are
    /// stored inline there (see EventCallback): the common path performs no
    /// heap allocation and no callback relocation. Throws
    /// std::invalid_argument on a negative or NaN delay or an empty action.
    template <typename F>
    Timer schedule(Time delay, F&& action) {
        if (!(delay >= 0.0)) {
            throw std::invalid_argument("Simulator::schedule: negative or NaN delay");
        }
        return schedule_at(now_ + delay, std::forward<F>(action));
    }

    /// Schedules `action` at absolute time `at` (>= now()). Throws
    /// std::invalid_argument on a time in the past, a NaN time (it would
    /// break the queue's strict weak order) or an empty action.
    template <typename F>
    Timer schedule_at(Time at, F&& action) {
        check_time(at, "Simulator::schedule_at");
        using D = std::decay_t<F>;
        if constexpr (std::is_same_v<D, EventCallback> ||
                      std::is_same_v<D, std::function<void()>>) {
            if (!action) throw std::invalid_argument("Simulator::schedule_at: empty action");
        }
        const EventId id = queue_.push(at, std::forward<F>(action));
        if (queue_.size() > queue_high_water_) queue_high_water_ = queue_.size();
        return Timer(id, true);
    }

    /// Schedules one event per item: at item.at, handler(body.get(),
    /// item.target, item.arg). The events fire exactly as if each item had
    /// been passed to schedule_at in turn — same order, same executed() and
    /// pending() counts — but share one queue entry (see
    /// EventQueue::push_fanout), and cannot be cancelled. `body` is
    /// released after the last one runs. Throws std::invalid_argument on a
    /// null handler or any item time in the past or NaN, scheduling nothing.
    void schedule_fanout(FanoutHandler handler, std::shared_ptr<void> body,
                         std::span<const FanoutItem> items) {
        queue_.push_fanout(handler, std::move(body), items, now_);
        if (queue_.size() > queue_high_water_) queue_high_water_ = queue_.size();
    }

    /// Cancels a pending timer. Returns false if it already fired or was
    /// cancelled. The handle is disarmed either way.
    bool cancel(Timer& timer);

    /// Runs events until the queue is empty. Returns number of events run.
    std::size_t run();

    /// Runs events with time <= deadline; the clock ends at
    /// max(now, deadline) if drained, else at the last executed event.
    std::size_t run_until(Time deadline);

    /// Runs at most one event. Returns false if none were runnable.
    bool step();

    /// True if no pending events remain.
    bool idle() const { return queue_.empty(); }

    /// Number of pending events.
    std::size_t pending() const { return queue_.size(); }

    /// Total events executed since construction.
    std::size_t executed() const { return executed_; }

    /// Maximum pending-queue depth ever reached.
    std::size_t queue_high_water() const { return queue_high_water_; }

    /// Recycled blocks for the shared bodies of messages in flight (see
    /// BodyPool). Bodies allocated from it may be held only by this
    /// simulator's events.
    BodyPool& body_pool() { return body_pool_; }
    const BodyPool& body_pool() const { return body_pool_; }

  private:
    void check_time(Time at, const char* who) const {
        if (!(at >= now_)) {
            throw std::invalid_argument(std::string(who) + ": time in the past or NaN");
        }
    }

    // Declared before queue_ so that it outlives the bodies that pending
    // fan-outs and delivery closures still hold when the simulator dies.
    BodyPool body_pool_;
    EventQueue queue_;
    Time now_ = 0.0;
    std::size_t executed_ = 0;
    std::size_t queue_high_water_ = 0;
};

}  // namespace tibfit::sim
