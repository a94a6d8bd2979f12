// Content-addressed snapshot cache for built metagraphs.
//
// The paper's front end (parse every compiled module, extract dependence
// edges) is the pipeline's cold-start cost; like CPDA's amortized dependence
// models, we build once and reuse. A cache key is a content hash over the
// exact inputs that determine the graph — every (path, text) source pair
// plus the build/coverage configuration — so an unchanged corpus hits and
// any touched file misses. Entries are v2 binary snapshots (serialize.hpp)
// stored as <dir>/<key-hex>.rmg2.
//
// Failure policy: a missing or corrupt entry is a miss, never an error —
// the caller falls back to a fresh parse+build and re-stores. The two cases
// are counted apart: an absent file is an expected cold start
// (meta.snapshot.missing), while an unparsable one is evidence of a torn
// write or bit rot (meta.snapshot.corrupt) — it is renamed to a `.corrupt`
// sidecar (meta.snapshot.quarantined) with the checksum-mismatch offset
// logged, so the slot reads as cleanly missing afterwards. Both still count
// toward meta.snapshot.misses. Writes publish atomically: full payload to a
// temp file, fsync, rename, directory fsync. Injection sites
// meta.snapshot.{read,write} (src/fault) let tests force every branch.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "meta/metagraph.hpp"
#include "support/hash.hpp"

namespace rca::meta {

/// Incremental FNV-1a 64 content hash. Every add() is length-prefixed, so
/// ("ab","c") and ("a","bc") produce different keys.
class SnapshotKey {
 public:
  SnapshotKey& add(std::string_view bytes);
  SnapshotKey& add_u64(std::uint64_t value);

  std::uint64_t digest() const { return hash_; }
  /// 16 lowercase hex digits — the cache file stem.
  std::string hex() const;

 private:
  std::uint64_t hash_ = kFnvOffsetBasis;
};

class SnapshotCache {
 public:
  /// The directory is created lazily on the first store().
  explicit SnapshotCache(std::string dir);

  const std::string& dir() const { return dir_; }
  std::string path_for(const SnapshotKey& key) const;

  /// Loads the snapshot for `key`; absent entries are misses, corrupt ones
  /// are quarantined (renamed to <path>.corrupt) and also report a miss.
  /// Never throws.
  std::optional<Metagraph> try_load(const SnapshotKey& key) const;

  /// Durably stores `mg` under `key` (tmp file + fsync + rename +
  /// directory fsync). Best-effort: returns false on I/O failure without
  /// throwing.
  bool store(const SnapshotKey& key, const Metagraph& mg) const;

 private:
  std::string dir_;
};

}  // namespace rca::meta
