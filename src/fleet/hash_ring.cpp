#include "fleet/hash_ring.hpp"

#include <algorithm>
#include <string>

#include "support/error.hpp"
#include "support/hash.hpp"

namespace rca::fleet {

namespace {

/// Murmur3 fmix64 finalizer. Raw FNV-1a of short, similar strings ("key-0",
/// "key-1", ...) clusters in a narrow band of the 64-bit space — bad enough
/// that a 4-shard ring can starve three shards entirely. The finalizer's
/// avalanche spreads both the vnode points and the lookup keys uniformly.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

}  // namespace

HashRing::HashRing(std::size_t shards, std::size_t vnodes) : shards_(shards) {
  RCA_CHECK_MSG(shards >= 1, "hash ring needs at least one shard");
  if (vnodes == 0) vnodes = 1;
  ring_.reserve(shards * vnodes);
  for (std::size_t s = 0; s < shards; ++s) {
    for (std::size_t v = 0; v < vnodes; ++v) {
      const std::string point =
          "shard-" + std::to_string(s) + "#" + std::to_string(v);
      ring_.emplace_back(mix64(fnv1a64(point, kFleetFnvBasis)), s);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::size_t HashRing::owner(std::string_view key) const {
  const std::uint64_t h = mix64(fnv1a64(key, kFleetFnvBasis));
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const std::pair<std::uint64_t, std::size_t>& p, std::uint64_t v) {
        return p.first < v;
      });
  if (it == ring_.end()) it = ring_.begin();  // wrap
  return it->second;
}

std::vector<std::size_t> HashRing::preference(std::string_view key) const {
  const std::uint64_t h = mix64(fnv1a64(key, kFleetFnvBasis));
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const std::pair<std::uint64_t, std::size_t>& p, std::uint64_t v) {
        return p.first < v;
      });
  std::vector<std::size_t> order;
  order.reserve(shards_);
  std::vector<bool> seen(shards_, false);
  for (std::size_t walked = 0; walked < ring_.size() && order.size() < shards_;
       ++walked, ++it) {
    if (it == ring_.end()) it = ring_.begin();
    if (!seen[it->second]) {
      seen[it->second] = true;
      order.push_back(it->second);
    }
  }
  return order;
}

}  // namespace rca::fleet
