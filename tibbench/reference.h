// The reference kernel: a fixed piece of work, shaped like the simulator's
// hot path, that the benchmark runs between trials to tell whether the CPU
// it is on runs at full speed at that moment. It is built as a library of
// its own, linked to none of the tibfit code, so no change to src/ or to
// src/'s compile options changes what it measures.
#pragma once

namespace tibbench {

/// Runs the kernel once (about 0.5 ms on a 4-core Xeon VM): a binary heap
/// of 2048 timestamped entries fed by a 64-bit LCG, 6000 pop/push steps
/// with a lookup into a 256 KB table and an exp() each. Returns a checksum,
/// so the work cannot be optimised away.
double reference_kernel();

}  // namespace tibbench
