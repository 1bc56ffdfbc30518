// Future event list for the discrete-event engine: a binary heap keyed by
// (time, sequence number) so that events scheduled for the same instant
// fire in scheduling order — a determinism requirement the experiments rely
// on for reproducibility.
//
// Storage is a slab arena of recycled slots (free list + never-repeating
// per-push keys), and actions are held in an EventCallback — a
// small-buffer-optimised, move-only callable — so the steady state of a
// long run allocates nothing per event: the arena footprint tracks the
// *concurrent* event count (queue high-water), not the total event count.
// The pre-arena design kept one heap-allocated std::function plus a dead_
// flag alive per event *ever pushed*, so a million-event trial held a
// million dead function objects by the end.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/invariant.h"

namespace tibfit::sim {

/// Simulation time in abstract seconds.
using Time = double;

/// Opaque handle identifying a scheduled event; used for cancellation.
/// Encodes (push sequence number, slot index); the sequence number never
/// repeats, so a stale handle — one whose event already executed or was
/// cancelled, even after its slot has been recycled by a later push — can
/// never cancel the wrong event.
using EventId = std::uint64_t;

namespace detail {

/// Type-erasure vtable for EventCallback. A null `relocate` means the
/// storage is trivially relocatable (move = memcpy of the inline buffer —
/// true for every capture of pointers and scalars, i.e. all the
/// simulator's scheduling lambdas, and for the heap fallback whose storage
/// is just a pointer); a null `destroy` means destruction is a no-op. The
/// null encodings let moves and resets on the hot path skip the indirect
/// call entirely.
struct CallbackOps {
    void (*invoke)(void* storage);
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage) noexcept;
};

template <typename F>
inline constexpr CallbackOps kInlineCallbackOps = {
    /*invoke=*/[](void* p) { (*static_cast<F*>(p))(); },
    /*relocate=*/
    std::is_trivially_copyable_v<F>
        ? nullptr
        : +[](void* from, void* to) noexcept {
              ::new (to) F(std::move(*static_cast<F*>(from)));
              static_cast<F*>(from)->~F();
          },
    /*destroy=*/
    std::is_trivially_destructible_v<F>
        ? nullptr
        : +[](void* p) noexcept { static_cast<F*>(p)->~F(); },
};

template <typename F>
inline constexpr CallbackOps kHeapCallbackOps = {
    /*invoke=*/[](void* p) { (**static_cast<F**>(p))(); },
    /*relocate=*/nullptr,  // storage is a raw pointer: memcpy relocates it
    /*destroy=*/[](void* p) noexcept { delete *static_cast<F**>(p); },
};

}  // namespace detail

/// A move-only `void()` callable with inline storage for small captures.
/// Every scheduling lambda in the simulator (a `this` pointer plus a few
/// scalars, a payload struct, or a shared packet body) fits inline; larger
/// callables fall back to one heap allocation, exactly like std::function
/// — the fallback keeps the type general, the inline path keeps the hot
/// path allocation-free.
class EventCallback {
  public:
    /// Inline capture budget. The largest closures in the tree are
    /// SensorNode's jittered transmit closure (this + sink + a
    /// ReportPayload) and the channel's collision-model delivery closure
    /// (`this`, a process pointer, a shared_ptr to the packet body and the
    /// receiver's rssi: 40 bytes). Packet contents never enter a closure,
    /// so growing Packet cannot push deliveries onto the heap; channel.cc
    /// static_asserts that with stores_inline.
    static constexpr std::size_t kInlineSize = 64;

    /// True if a callable of type F is stored in the inline buffer; false
    /// if constructing an EventCallback from it heap-allocates.
    template <typename F, typename D = std::decay_t<F>>
    static constexpr bool stores_inline = sizeof(D) <= kInlineSize &&
                                          alignof(D) <= alignof(std::max_align_t) &&
                                          std::is_nothrow_move_constructible_v<D>;

    EventCallback() = default;

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, EventCallback> &&
                                          std::is_invocable_r_v<void, D&>>>
    EventCallback(F&& f) {  // NOLINT(google-explicit-constructor)
        construct(std::forward<F>(f));
    }

    /// Destroys any held callable and constructs a new one in place — the
    /// path EventQueue uses to build an action directly in its arena slot
    /// with no intermediate EventCallback object to relocate.
    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, EventCallback> &&
                                          std::is_invocable_r_v<void, D&>>>
    void emplace(F&& f) {
        reset();
        construct(std::forward<F>(f));
    }

    EventCallback(EventCallback&& o) noexcept : ops_(o.ops_) {
        if (ops_) {
            relocate_from(o);
            o.ops_ = nullptr;
        }
    }

    EventCallback& operator=(EventCallback&& o) noexcept {
        if (this != &o) {
            reset();
            ops_ = o.ops_;
            if (ops_) {
                relocate_from(o);
                o.ops_ = nullptr;
            }
        }
        return *this;
    }

    EventCallback(const EventCallback&) = delete;
    EventCallback& operator=(const EventCallback&) = delete;

    ~EventCallback() { reset(); }

    /// Destroys the held callable, leaving the callback empty.
    void reset() noexcept {
        if (ops_) {
            if (ops_->destroy) ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

    explicit operator bool() const { return ops_ != nullptr; }

    void operator()() {
        assert(ops_ && "invoking an empty EventCallback");
        ops_->invoke(storage_);
    }

  private:
    template <typename F, typename D = std::decay_t<F>>
    void construct(F&& f) {
        // An empty std::function must yield an empty callback (not a
        // callable that throws bad_function_call later) so that push-site
        // validation keeps rejecting it up front.
        if constexpr (std::is_same_v<D, std::function<void()>>) {
            if (!f) return;
        }
        if constexpr (stores_inline<D>) {
            ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
            ops_ = &detail::kInlineCallbackOps<D>;
        } else {
            ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
            ops_ = &detail::kHeapCallbackOps<D>;
        }
    }

    void relocate_from(EventCallback& o) noexcept {
        if (ops_->relocate) {
            ops_->relocate(o.storage_, storage_);
        } else {
            std::memcpy(storage_, o.storage_, kInlineSize);
        }
    }

    alignas(std::max_align_t) unsigned char storage_[kInlineSize];
    const detail::CallbackOps* ops_ = nullptr;
};

/// Runs one delivery of a fan-out: `body` is the fan-out's shared body,
/// `target` and `arg` the delivery's own fields (see EventQueue::push_fanout).
using FanoutHandler = void (*)(void* body, void* target, double arg);

/// One delivery of a fan-out: at time `at`, the handler runs with `target`
/// and `arg`.
struct FanoutItem {
    Time at;
    void* target;
    double arg;
};

/// Min-heap of (time, seq) -> action with lazy cancellation and slot
/// recycling. All hot methods are defined inline below: the queue sits on
/// the innermost simulator loop, and keeping push/pop visible to the
/// caller's TU (no LTO required) is worth several ns per event.
///
/// Besides single events (timers), the queue holds *fan-outs*: every
/// delivery of one send, sorted by (time, seq), behind a single heap entry
/// that always carries the fan-out's earliest remaining delivery. Each
/// delivery is still its own event — it takes the seq an individual push
/// would have taken, counts once in size(), and pops on its own — so the
/// pop order is exactly that of pushing every delivery separately.
class EventQueue {
  public:
    /// Schedules `action` at absolute time `at`; returns a cancellation id.
    /// Throws std::invalid_argument on an empty action.
    EventId push(Time at, EventCallback action) {
        const std::uint32_t slot = acquire_slot();
        slots_[slot].action = std::move(action);
        return commit_push(at, slot);
    }

    /// Same, but constructs the action in place in its arena slot — the
    /// zero-copy path for scheduling a lambda directly.
    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventCallback> &&
                                          std::is_invocable_r_v<void, std::decay_t<F>&>>>
    EventId push(Time at, F&& f) {
        const std::uint32_t slot = acquire_slot();
        slots_[slot].action.emplace(std::forward<F>(f));
        return commit_push(at, slot);
    }

    /// Schedules one event per item, each running handler(body.get(),
    /// item.target, item.arg) at item.at. The items take consecutive seqs
    /// in the order given, exactly as if each had been pushed in turn, so
    /// same-instant items (and same-instant events pushed before or after)
    /// keep scheduling order. Fan-out events cannot be cancelled; `body` is
    /// released after the last one runs. Storage is pooled: once the pool
    /// has grown to the number of fan-outs in flight and their sizes, a
    /// push allocates nothing; items already in time order skip the sort.
    /// Throws std::invalid_argument on a null handler, or on an item time
    /// before `not_before` or NaN; either way nothing is scheduled and no
    /// seq is used. An empty `items` schedules nothing.
    void push_fanout(FanoutHandler handler, std::shared_ptr<void> body,
                     std::span<const FanoutItem> items,
                     Time not_before = -std::numeric_limits<Time>::infinity()) {
        if (!handler) throw std::invalid_argument("EventQueue::push_fanout: empty handler");
        if (items.empty()) return;
        const std::uint32_t index = acquire_fanout();
        Fanout& f = fanouts_[index];
        // One pass validates each time, assigns its key and checks the
        // order. Keys rise in item order, so the items are sorted by (at,
        // key) iff their times never fall (the channel stages its
        // broadcasts that way).
        std::uint64_t seq = next_seq_;
        Time prev = not_before;
        bool sorted = true;
        for (const FanoutItem& item : items) {
            if (!(item.at >= not_before)) {
                f.items.clear();
                free_fanouts_.push_back(index);
                throw std::invalid_argument("EventQueue::push_fanout: time in the past or NaN");
            }
            sorted &= item.at >= prev;
            prev = item.at;
            f.items.push_back(
                Delivery{item.at, (seq++ << kSlotBits) | kFanoutBit | index, item.target,
                         item.arg});
        }
        next_seq_ = seq;
        f.handler = handler;
        f.body = std::move(body);
        if (!sorted) {
            std::sort(f.items.begin(), f.items.end(), [](const Delivery& a, const Delivery& b) {
                if (a.at != b.at) return a.at < b.at;
                return a.key < b.key;
            });
        }
        heap_push(Entry{f.items.front().at, f.items.front().key});
        ++live_entries_;
        live_ += items.size();
    }

    /// Marks an event cancelled. Cancelled events are skipped on pop.
    /// Returns false if the id was already executed, cancelled, or unknown
    /// — double-cancel and cancel-after-pop (even from inside the running
    /// action itself, and even after the slot was recycled by a later
    /// push) are safe no-ops that leave size()/empty() intact.
    ///
    /// A slot is released exactly once per incarnation — here or in
    /// run_next() — so an id that is unknown, already executed, already
    /// cancelled, or from a recycled incarnation (the key check: keys never
    /// repeat) is rejected before live_ is touched; live_ cannot underflow
    /// and size()/empty() stay consistent.
    bool cancel(EventId id) {
        const auto slot = static_cast<std::uint32_t>(id & kSlotMask);
        if (slot >= slots_.size()) return false;  // also every fan-out key
        Slot& s = slots_[slot];
        if (s.key != id) return false;
        assert(s.action && "live slot must hold an action");
        assert(live_ > 0 && "live slot implies live_ > 0");
        release_slot(slot);
        --live_;
        --live_entries_;
        return true;
    }

    /// True if no runnable (non-cancelled) events remain.
    bool empty() const { return live_ == 0; }

    /// Number of runnable events; each fan-out delivery counts once.
    std::size_t size() const { return live_; }

    /// Time of the earliest runnable event; requires !empty().
    Time next_time() const {
        auto* self = const_cast<EventQueue*>(this);
        self->drop_cancelled_top();
        if (heap_.empty()) throw std::logic_error("EventQueue::next_time on empty queue");
        return heap_.front().at;
    }

    /// Pops the earliest runnable event, stores its time in `now`, and runs
    /// it; requires !empty(). The event is off the queue before it runs,
    /// so it may push further events, and cancel(own id) from inside it is
    /// a key-checked no-op.
    void run_next(Time& now) {
        drop_cancelled_top();
        if (heap_.empty()) throw std::logic_error("EventQueue::run_next on empty queue");
        const Entry top = heap_.front();
        // The future event list never runs backwards: each pop's timestamp
        // is >= every earlier pop's (same-instant ties break by push order).
        TIBFIT_CHECK(top.at >= last_pop_at_,
                     "time ran backwards: " + std::to_string(top.at) + " after " +
                         std::to_string(last_pop_at_));
        last_pop_at_ = top.at;
        now = top.at;
        assert(live_ > 0 && "a live top entry implies live_ > 0");
        --live_;
        // The tag bit in the key, already loaded, tells the two kinds apart.
        if (top.key & kFanoutBit) {
            run_fanout_delivery(top);
            return;
        }
        heap_pop();
        --live_entries_;
        const auto slot = static_cast<std::uint32_t>(top.key & kSlotMask);
        EventCallback action = std::move(slots_[slot].action);
        release_slot(slot);
        action();
    }

    /// Arena footprint: slots ever allocated. Bounded by the maximum
    /// number of *simultaneously pending* timers, not the total pushed —
    /// the slot-recycling regression tests pin this down.
    std::size_t slot_count() const { return slots_.size(); }

  private:
    // An EventId is (seq << kSlotBits) | slot. The sequence counter starts
    // at 1 and only grows, so ids are unique across the queue's lifetime
    // and never zero; a slot stores the id of its current tenant (0 when
    // free), which makes liveness / staleness checking one 64-bit compare
    // — no separate generation counter or live flag. A fan-out delivery's
    // key is (seq << kSlotBits) | kFanoutBit | fan-out index: the seq alone
    // orders keys, so the tag never changes the pop order. 2^40 pushes and
    // 2^23 concurrent timers (or fan-outs) are far beyond any trial.
    static constexpr unsigned kSlotBits = 24;
    static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotBits) - 1;
    static constexpr std::uint64_t kFanoutBit = std::uint64_t{1} << (kSlotBits - 1);

    struct Slot {
        EventCallback action;
        EventId key = 0;  ///< id of the pending event in this slot; 0 = free
    };

    struct Delivery {
        Time at;
        EventId key;
        void* target;
        double arg;
    };

    struct Fanout {
        FanoutHandler handler = nullptr;
        std::shared_ptr<void> body;
        std::vector<Delivery> items;  ///< sorted by (at, key); capacity is pooled
        std::size_t next = 0;         ///< first delivery not yet run
    };

    struct Entry {
        Time at;
        EventId key;
        // Min-ordering (see earlier()): earlier time wins, then lower key —
        // keys increase strictly in push order, so same-instant events fire
        // in scheduling order. Keys are unique, so the pop order is a total
        // order — it does not depend on the heap's internal shape or arity.
        // Keeping the entry at 16 bytes (vs the historical 24) measurably
        // cuts the sift memory traffic of every heap operation.
    };

    /// Fan-out entries are never cancelled; a timer entry is live while its
    /// slot still holds its key.
    bool entry_live(const Entry& e) const {
        return (e.key & kFanoutBit) != 0 ||
               slots_[static_cast<std::uint32_t>(e.key & kSlotMask)].key == e.key;
    }

    /// Timestamp of the most recent pop, for the monotonic-time invariant.
    Time last_pop_at_ = -std::numeric_limits<Time>::infinity();

    /// Pops a recycled slot off the free list, or grows the arena by one.
    std::uint32_t acquire_slot() {
        if (!free_.empty()) {
            const std::uint32_t slot = free_.back();
            free_.pop_back();
            return slot;
        }
        const auto slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
        return slot;
    }

    /// Validates the acquired slot's action (throwing like the historical
    /// push-site check on an empty one), marks it live and heaps the entry.
    /// An empty action used to be accepted and then blow up at pop()-time,
    /// far from the buggy push site — and cancel() on it returned false
    /// while the event stayed live; now the acquired slot goes straight
    /// back to the free list (no id was handed out, nothing to invalidate).
    EventId commit_push(Time at, std::uint32_t slot) {
        Slot& s = slots_[slot];
        if (!s.action) {
            free_.push_back(slot);
            throw std::invalid_argument("EventQueue::push: empty action");
        }
        assert(slot < kFanoutBit && "arena exceeded 2^23 concurrent events");
        const EventId key = (next_seq_++ << kSlotBits) | slot;
        s.key = key;
        heap_push(Entry{at, key});
        ++live_;
        ++live_entries_;
        return key;
    }

    /// Destroys the slot's action and returns it to the free list. The
    /// slot's key goes to 0, so every outstanding EventId for it is
    /// invalidated (and the next tenant's key can never equal an old one).
    void release_slot(std::uint32_t slot) {
        Slot& s = slots_[slot];
        s.action.reset();
        s.key = 0;
        free_.push_back(slot);
    }

    std::uint32_t acquire_fanout() {
        if (!free_fanouts_.empty()) {
            const std::uint32_t index = free_fanouts_.back();
            free_fanouts_.pop_back();
            return index;
        }
        const auto index = static_cast<std::uint32_t>(fanouts_.size());
        assert(index < kFanoutBit && "more than 2^23 fan-outs in flight");
        fanouts_.emplace_back();
        return index;
    }

    /// Runs the fan-out delivery `top` stands for (its time is already
    /// checked and stored). The next delivery, if any, replaces it at the
    /// heap top; it is usually still the earliest event, so the sift stops
    /// at once. Kept out of line so that run_next's timer path stays as
    /// small as before fan-outs existed (inlined, it slowed the timer
    /// microbenchmarks by about 20%).
    [[gnu::noinline]] void run_fanout_delivery(const Entry& top) {
        const auto index = static_cast<std::uint32_t>(top.key & (kFanoutBit - 1));
        Fanout& f = fanouts_[index];
        const Delivery d = f.items[f.next++];
        const FanoutHandler handler = f.handler;
        // The handler may push (growing fanouts_) and reuse this fan-out
        // once it is released, so it runs on copies; the last delivery
        // keeps the body alive itself.
        if (f.next < f.items.size()) {
            void* const body = f.body.get();
            replace_top(Entry{f.items[f.next].at, f.items[f.next].key});
            handler(body, d.target, d.arg);
            return;
        }
        heap_pop();
        --live_entries_;
        const std::shared_ptr<void> body = std::move(f.body);
        f.items.clear();
        f.next = 0;
        free_fanouts_.push_back(index);
        handler(body.get(), d.target, d.arg);
    }

    /// live_entries_ counts the heap entries that are not cancelled, so
    /// heap_.size() == live_entries_ means no stale entries exist anywhere
    /// — the common no-cancellation steady state skips the slot probe
    /// entirely. (live_ cannot serve: one fan-out entry stands for many
    /// events.)
    void drop_cancelled_top() {
        while (heap_.size() != live_entries_ && !entry_live(heap_.front())) heap_pop();
    }

    // Binary min-heap with hand-written sifts over earlier(). A 4-ary
    // heap lost to libstdc++'s std::push_heap/pop_heap (see
    // docs/PERFORMANCE.md); these sifts beat both, because child selection
    // is a conditional move rather than an unpredictable branch. The pop
    // order is the total (at, key) order whatever the sift, so the
    // outputs do not depend on it.

    /// The strict (at, key) order, without short-circuit branches: `&` and
    /// `|` on bools evaluate both sides. Same result as a lexicographic
    /// compare, including -0.0 == +0.0 ties breaking on key.
    static bool earlier(const Entry& a, const Entry& b) {
        return (a.at < b.at) | ((a.at == b.at) & (a.key < b.key));
    }

    void heap_push(const Entry& e) {
        heap_.push_back(e);
        sift_up(heap_.size() - 1, e);
    }

    /// Moves `e` from the hole at `i` toward the root until its parent is
    /// earlier, then stores it. `e` is a copy: the loop overwrites slots.
    void sift_up(std::size_t i, Entry e) {
        Entry* const h = heap_.data();
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!earlier(e, h[parent])) break;
            h[i] = h[parent];
            i = parent;
        }
        h[i] = e;
    }

    /// Removes the top. Bottom-up, as libstdc++'s pop_heap: the hole walks
    /// down the earlier children to a leaf, and the last entry (which
    /// belongs near the bottom) sifts up from there, so a level costs one
    /// comparison instead of two.
    void heap_pop() {
        const Entry last = heap_.back();
        heap_.pop_back();
        const std::size_t n = heap_.size();
        if (n == 0) return;
        Entry* const h = heap_.data();
        std::size_t hole = 0;
        for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
            if (child + 1 < n) child += earlier(h[child + 1], h[child]);
            h[hole] = h[child];
            hole = child;
        }
        sift_up(hole, last);
    }

    /// Replaces the top entry with `e` and sifts it down. Top-down with an
    /// early stop: a fan-out's next delivery is usually still the earliest
    /// event, so the loop ends at the first comparison.
    void replace_top(const Entry& e) {
        const std::size_t n = heap_.size();
        Entry* const h = heap_.data();
        std::size_t i = 0;
        for (std::size_t child = 1; child < n; child = 2 * i + 1) {
            if (child + 1 < n) child += earlier(h[child + 1], h[child]);
            if (!earlier(h[child], e)) break;
            h[i] = h[child];
            i = child;
        }
        h[i] = e;
    }

    std::vector<Entry> heap_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_;  ///< recycled slot indices (LIFO)
    std::vector<Fanout> fanouts_;
    std::vector<std::uint32_t> free_fanouts_;  ///< recycled fan-out indices (LIFO)
    std::uint64_t next_seq_ = 1;               ///< 0 is reserved for "slot free"
    std::size_t live_ = 0;                     ///< runnable events
    std::size_t live_entries_ = 0;             ///< heap entries not cancelled
};

}  // namespace tibfit::sim
