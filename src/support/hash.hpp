// FNV-1a 64: the one byte hash behind snapshot checksums and cache keys,
// fault-site seeds, backoff jitter and the fleet's hash ring. Stable across
// processes and platforms by construction (no process-seeded hashing).
#pragma once

#include <cstdint>
#include <string_view>

namespace rca {

/// The standard FNV-1a 64 offset basis.
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;

/// The basis for the fleet's ring points and key hashes and for backoff
/// jitter (support/backoff.hpp): the standard offset basis with its last
/// digit dropped. Kept so that shard owners and backoff schedules do not
/// move.
inline constexpr std::uint64_t kFleetFnvBasis = 1469598103934665603ULL;

/// FNV-1a 64 of `bytes` starting from `basis`; pass a previous hash as the
/// basis to continue it over more bytes.
inline std::uint64_t fnv1a64(std::string_view bytes,
                             std::uint64_t basis = kFnvOffsetBasis) {
  std::uint64_t h = basis;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

}  // namespace rca
