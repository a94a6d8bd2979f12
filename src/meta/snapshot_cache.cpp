#include "meta/snapshot_cache.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <utility>

#include "fault/fault.hpp"
#include "meta/serialize.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"

namespace rca::meta {

namespace fs = std::filesystem;

namespace {

std::string le64(std::uint64_t value) {
  std::string out(8, '\0');
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
  return out;
}

/// write(2) the whole buffer, retrying on EINTR and partial writes.
bool write_all_fd(int fd, const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

SnapshotKey& SnapshotKey::add(std::string_view bytes) {
  hash_ = fnv1a64(le64(bytes.size()), hash_);
  hash_ = fnv1a64(bytes, hash_);
  return *this;
}

SnapshotKey& SnapshotKey::add_u64(std::uint64_t value) {
  hash_ = fnv1a64(le64(value), hash_);
  return *this;
}

std::string SnapshotKey::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash_));
  return std::string(buf, 16);
}

SnapshotCache::SnapshotCache(std::string dir) : dir_(std::move(dir)) {}

std::string SnapshotCache::path_for(const SnapshotKey& key) const {
  return (fs::path(dir_) / (key.hex() + ".rmg2")).string();
}

std::optional<Metagraph> SnapshotCache::try_load(const SnapshotKey& key) const {
  const std::string path = path_for(key);
  const fault::Hit h = RCA_FAULT_CHECK("meta.snapshot.read");
  std::error_code ec;
  if (h.action == fault::Action::kErrno || !fs::exists(path, ec) || ec) {
    // Absent entry (or an unreadable directory): an expected cold start,
    // distinct from corruption — meta.snapshot.missing tells them apart.
    obs::count("meta.snapshot.misses");
    obs::count("meta.snapshot.missing");
    return std::nullopt;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    // Exists but cannot be opened: treat like corruption (quarantine would
    // fail too, so just miss) rather than a silent cold start.
    obs::count("meta.snapshot.misses");
    obs::count("meta.snapshot.corrupt");
    return std::nullopt;
  }
  try {
    Metagraph mg = load_metagraph(in);
    obs::count("meta.snapshot.hits");
    return mg;
  } catch (const Error& e) {
    // Corrupt entry (torn write, bit rot, stale format): quarantine it under
    // a .corrupt sidecar name so the slot reads as cleanly missing from now
    // on, log why (load_metagraph includes the checksum mismatch offset),
    // and report a miss — the caller rebuilds instead of failing.
    obs::count("meta.snapshot.misses");
    obs::count("meta.snapshot.corrupt");
    std::error_code rename_ec;
    fs::rename(path, path + ".corrupt", rename_ec);
    if (!rename_ec) obs::count("meta.snapshot.quarantined");
    std::fprintf(stderr,
                 "rca: quarantined corrupt snapshot %s%s (%s); rebuilding\n",
                 path.c_str(), rename_ec ? " [rename failed]" : ".corrupt",
                 e.what());
    return std::nullopt;
  }
}

bool SnapshotCache::store(const SnapshotKey& key, const Metagraph& mg) const {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) return false;
  const std::string path = path_for(key);
  const std::string tmp = path + ".tmp";

  std::string bytes = save_metagraph_to_string(mg, SnapshotFormat::kV2Binary);
  const fault::Hit h = RCA_FAULT_CHECK("meta.snapshot.write");
  if (h.action == fault::Action::kErrno) return false;
  std::size_t to_write = bytes.size();
  if (h.action == fault::Action::kShortWrite) {
    // Torn write: half the payload still reaches the final name, simulating
    // a crash window where the rename was durable but the data was not. The
    // next try_load must quarantine and rebuild.
    to_write /= 2;
  }

  // Atomic publish: write the whole payload to a temp file, fsync it, then
  // rename over the final name — a reader sees the old entry, no entry, or
  // the complete new entry, never a partially written one (short of the
  // injected torn-write above, which models the storage lying about
  // durability).
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  const bool wrote = write_all_fd(fd, bytes.data(), to_write);
  const bool synced = wrote && ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) {
    fs::remove(tmp, ec);
    return false;
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  // Make the rename itself durable (best effort; some filesystems need the
  // directory entry synced too).
  const int dir_fd = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  obs::count("meta.snapshot.stores");
  return true;
}

}  // namespace rca::meta
