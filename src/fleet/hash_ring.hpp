// Consistent-hash ring over worker shards.
//
// The fleet partitions the session key space (content-hash keys, src paths,
// scenario ids) across N workers so each resident graph lives in exactly
// one process. A plain `hash % N` would reshuffle almost every key when N
// changes; the ring with virtual nodes moves only ~1/N of the key space
// per shard change and keeps the assignment deterministic across gateway
// restarts (FNV-1a, no process-seeded hashing).
//
// preference() returns the owner followed by the remaining shards in ring
// order — the gateway's failover sequence when the owner's circuit is open:
// re-routable requests (ones carrying "src" or "scenario", which any worker
// can rebuild from the shared snapshot directory) walk this list.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace rca::fleet {

class HashRing {
 public:
  /// `shards` >= 1; `vnodes` virtual points per shard smooth the partition
  /// (64 gives <~15% imbalance across realistic key sets).
  explicit HashRing(std::size_t shards, std::size_t vnodes = 64);

  std::size_t shards() const { return shards_; }

  /// The shard owning `key`.
  std::size_t owner(std::string_view key) const;

  /// Owner first, then every other shard in ring order from the key's
  /// position — each shard exactly once.
  std::vector<std::size_t> preference(std::string_view key) const;

 private:
  std::size_t shards_;
  /// (point, shard), sorted by point.
  std::vector<std::pair<std::uint64_t, std::size_t>> ring_;
};

}  // namespace rca::fleet
