// Metagraph (de)serialization — the workflow role of the paper's pickled
// NetworkX metagraph: the expensive parse-and-build step is cached, shared
// between tools, or inspected offline.
//
// Two on-disk formats, auto-detected on load by the magic line:
//
// v1 — stable line-oriented text for inspection with standard utilities
// (tab-separated, '#' comments):
//   rca-metagraph 1
//   node <id> <canonical> <module> <subprogram|-> <line> <flags>
//   edge <u> <v>
//   io <label> <node-id>...
// Flags: i = localized intrinsic site, p = PRNG call site, - = none.
//
// v2 — compact binary for the snapshot cache:
//   rca-metagraph 2\n
// followed by sections, each `tag(1 byte) | varint payload-length | payload`,
// in the fixed order N, E, I, Z:
//   'N' nodes: varint count; per node str canonical, str module,
//       str subprogram, varint line, flags byte (bit0 intrinsic, bit1 prng);
//   'E' edges: varint count; per edge varint delta-u (u is non-decreasing in
//       edge order), varint v;
//   'I' io map: varint label count; per label str label, varint n, varint
//       node-ids (labels in sorted order);
//   'Z' trailer: 8-byte little-endian FNV-1a 64 checksum of every section
//       byte between the magic line and the 'Z' tag.
// str = varint byte-length + bytes; varints are LEB128. The checksum is
// verified before any payload is parsed, so truncation and bit flips fail
// fast with rca::Error instead of corrupting a load.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "meta/metagraph.hpp"

namespace rca::meta {

enum class SnapshotFormat {
  kV1Text,    // human-readable line format
  kV2Binary,  // length-prefixed binary sections with checksum trailer
};

/// Writes `mg` to `out`. Node ids are the in-memory ids. Streams carrying
/// v2 payloads must be opened in binary mode.
void save_metagraph(const Metagraph& mg, std::ostream& out,
                    SnapshotFormat format = SnapshotFormat::kV1Text);
std::string save_metagraph_to_string(
    const Metagraph& mg, SnapshotFormat format = SnapshotFormat::kV1Text);

/// Reads a metagraph previously written by save_metagraph; the format is
/// detected from the magic line. Throws rca::Error on malformed input
/// (bad magic, checksum mismatch, truncation, dangling ids, ...).
Metagraph load_metagraph(std::istream& in);
Metagraph load_metagraph_from_string(const std::string& text);

namespace detail {
/// LEB128 encode (exposed so tests can craft adversarial v2 payloads with
/// valid framing and checksums).
void append_varint(std::string& out, std::uint64_t value);
}  // namespace detail

}  // namespace rca::meta
