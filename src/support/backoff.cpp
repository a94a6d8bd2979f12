#include "support/backoff.hpp"

#include <algorithm>
#include <string>

#include "support/hash.hpp"

namespace rca {

long long jittered_backoff_ms(std::uint64_t attempt, long long base_ms,
                              long long cap_ms, std::uint64_t seed,
                              std::uint64_t key) {
  if (base_ms < 1) base_ms = 1;
  if (cap_ms < base_ms) cap_ms = base_ms;
  long long base = base_ms;
  for (std::uint64_t i = 0; i < attempt && base < cap_ms; ++i) base *= 2;
  base = std::min(base, cap_ms);
  const std::uint64_t h = fnv1a64(std::to_string(seed) + ":" +
                                      std::to_string(key) + ":" +
                                      std::to_string(attempt),
                                  kFleetFnvBasis);
  const double frac = 0.5 + 0.5 * static_cast<double>(h % 1024) / 1023.0;
  return std::max(static_cast<long long>(static_cast<double>(base) * frac),
                  1ll);
}

}  // namespace rca
