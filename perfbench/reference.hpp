#pragma once

// The benchmark's speed reference.  On a shared host the same work runs up
// to 40% slower for stretches of seconds to minutes (another tenant on the
// core's sibling, cache and memory contention), with no trace in the
// guest's steal counter.  A fixed job of the benchmark's own, timed next to
// every measured operation, slows down with it; dividing by it leaves the
// program's own cost.  The job shares no code with the program and is
// built with fixed flags in its own target, so no change to the program
// can change its speed.

namespace perfbench {

/// What reference_ms() returns on a calm 4-vCPU x86-64 virtual machine
/// (the median of 300 calls), in milliseconds.  Times reported "at
/// reference speed" are scaled to that machine.
inline constexpr double kReferenceNominalMs = 7.5;

/// Runs the reference job (sorting 32 Ki doubles twice and 100 k inserts
/// into a hash map, all from a fixed seed) three times and returns the
/// fastest wall time, in milliseconds.
[[nodiscard]] double reference_ms();

/// A duration `op` (in any unit), measured next to a reference_ms() call
/// that returned `ref_ms`, expressed at reference speed.
[[nodiscard]] inline double at_reference_speed(double op, double ref_ms) {
  return op * kReferenceNominalMs / ref_ms;
}

}  // namespace perfbench
