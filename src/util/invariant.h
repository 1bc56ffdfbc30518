// Runtime invariant checking — the TIBFIT_CHECK hook layer.
//
// Hot paths assert protocol invariants (TI in (0,1], v >= 0, CTI
// conservation, clusterer postconditions, event-queue time monotonicity,
// checkpoint round-trips) through TIBFIT_CHECK. The checks are compiled
// in unconditionally but cost one thread-local load and a predicted
// branch when disabled — the condition and its detail string are only
// evaluated once checking is switched on (exp::Scenario check.mode, or
// set_invariant_action directly in tests).
//
// Actions:
//   Off    — nothing is evaluated (the default).
//   Count  — violations increment a process-wide counter and log a
//            warning; execution continues (shadow/CI mode).
//   Throw  — the first violation throws std::logic_error (assert mode).
//
// The action is per thread: the parallel trial runner executes scenarios
// on several threads at once, and each run opens its own scope for its
// own check mode (exp::detail::RunHarness::check_engines), so one trial's
// scope never switches another's checks on or off. The violation counter
// is one process-wide atomic.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace tibfit::util {

enum class InvariantAction : int { Off = 0, Count = 1, Throw = 2 };

namespace detail {
inline thread_local InvariantAction t_invariant_action = InvariantAction::Off;
extern std::atomic<std::uint64_t> g_invariant_violations;
}  // namespace detail

/// The calling thread's action.
inline InvariantAction invariant_action() { return detail::t_invariant_action; }

/// Sets the calling thread's action; other threads keep theirs.
inline void set_invariant_action(InvariantAction action) {
    detail::t_invariant_action = action;
}

/// True when TIBFIT_CHECK conditions are being evaluated. Guard
/// multi-statement checks (loops over a partition, pairwise centre
/// scans) with this so they stay zero-cost when off.
inline bool invariant_checks_on() {
    return invariant_action() != InvariantAction::Off;
}

/// Violations recorded since process start (Count mode increments; Throw
/// mode increments before throwing).
inline std::uint64_t invariant_violations() {
    return detail::g_invariant_violations.load(std::memory_order_relaxed);
}

/// Report a failed check: bumps the counter, logs a warning, and throws
/// std::logic_error under InvariantAction::Throw. Called by TIBFIT_CHECK;
/// call directly only from hand-rolled check blocks.
void invariant_violation(const char* file, int line, const char* expr,
                         const std::string& detail);

/// RAII action switch: sets the calling thread's action for a scope and
/// restores its previous one on exit (also on exception, so an assert-mode
/// throw doesn't leave checking enabled for later runs).
class ScopedInvariantAction {
  public:
    explicit ScopedInvariantAction(InvariantAction action) : prev_(invariant_action()) {
        set_invariant_action(action);
    }
    ~ScopedInvariantAction() { set_invariant_action(prev_); }
    ScopedInvariantAction(const ScopedInvariantAction&) = delete;
    ScopedInvariantAction& operator=(const ScopedInvariantAction&) = delete;

  private:
    InvariantAction prev_;
};

}  // namespace tibfit::util

/// Assert a protocol invariant. `cond` and `detail` are evaluated only
/// when checking is enabled; `detail` only on failure.
#define TIBFIT_CHECK(cond, detail)                                              \
    do {                                                                        \
        if (::tibfit::util::invariant_checks_on() && !(cond)) {                 \
            ::tibfit::util::invariant_violation(__FILE__, __LINE__, #cond,      \
                                                (detail));                      \
        }                                                                       \
    } while (0)
