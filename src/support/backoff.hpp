// Deterministically jittered, capped exponential backoff: the one schedule
// behind fleet worker respawns, gateway retries and session-store build
// retries.
#pragma once

#include <cstdint>

namespace rca {

/// Exponential from `base_ms` doubling per `attempt` (0-based), capped at
/// `cap_ms`, times a multiplicative jitter in [0.5, 1.0] derived from the
/// FNV-1a hash of (seed, key, attempt) — so retry storms decorrelate, yet
/// every schedule reproduces on any platform. Never less than 1 ms.
long long jittered_backoff_ms(std::uint64_t attempt, long long base_ms,
                              long long cap_ms, std::uint64_t seed,
                              std::uint64_t key);

}  // namespace rca
