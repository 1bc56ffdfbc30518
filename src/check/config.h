// Correctness-tooling configuration (exp::Scenario `check` block).
//
//   off    — no checking (the default; artifacts byte-identical to a
//            build without tibfit_check).
//   shadow — a check::ShadowArbiter runs the paper-literal reference
//            stack in lockstep with every scored decision engine and
//            counts divergences; TIBFIT_CHECK invariants count + warn.
//            The run completes either way — CI gates on the counts.
//   assert — first divergence or invariant violation throws.
//
// See docs/CHECKING.md.
#pragma once

namespace tibfit::check {

enum class Mode { Off, Shadow, Assert };

inline const char* mode_name(Mode m) {
    switch (m) {
        case Mode::Off: return "off";
        case Mode::Shadow: return "shadow";
        case Mode::Assert: return "assert";
    }
    return "off";
}

/// The scenario-level settings block (serialized as {"check": {...}}).
struct Settings {
    Mode mode = Mode::Off;
};

}  // namespace tibfit::check
