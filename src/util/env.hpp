#pragma once

// Environment-variable configuration knobs for the bench harness.
//
// The paper runs NSGA-II for up to 10^6 iterations; on small hosts the
// benches scale their checkpoint schedules by EUS_SCALE (a positive double,
// default chosen per bench).  EUS_SEED overrides the master seed.

#include <cstdint>
#include <optional>
#include <string>

namespace eus {

/// Raw lookup; std::nullopt when unset or empty.
[[nodiscard]] std::optional<std::string> env_string(const char* name);

/// Parses a double from the environment; falls back when unset/invalid.
[[nodiscard]] double env_double(const char* name, double fallback);

/// Parses an integer from the environment; falls back when unset/invalid.
[[nodiscard]] std::int64_t env_int(const char* name, std::int64_t fallback);

/// The global iteration-scale knob (EUS_SCALE, default 1.0, clamped > 0).
[[nodiscard]] double bench_scale();

/// The global master seed (EUS_SEED, default 20130520 — the IPDPSW'13
/// workshop date).
[[nodiscard]] std::uint64_t bench_seed();

/// The global worker-thread knob (EUS_THREADS): 0 = hardware concurrency
/// (the default — benches saturate the machine), 1 = fully serial, n > 1 =
/// n workers.  Negative/invalid values fall back to 0.
[[nodiscard]] std::size_t bench_threads();

/// eus_served's default listen port (EUS_SERVE_PORT, default 7461; out-of-
/// range or invalid values fall back to the default).
[[nodiscard]] std::uint16_t serve_port();

/// eus_served's bounded-request-queue depth (EUS_SERVE_QUEUE_DEPTH, default
/// 64, clamped >= 1).  Requests arriving with the queue full are rejected
/// with an explicit backpressure error rather than buffered.
[[nodiscard]] std::size_t serve_queue_depth();

}  // namespace eus
