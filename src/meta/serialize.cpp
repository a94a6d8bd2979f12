#include "meta/serialize.hpp"

#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <utility>

#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/strings.hpp"

namespace rca::meta {

using graph::NodeId;

namespace detail {

void append_varint(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

}  // namespace detail

namespace {

constexpr char kMagicV1[] = "rca-metagraph 1";
constexpr char kMagicV2[] = "rca-metagraph 2";

// ---------------------------------------------------------------------------
// v1 text format
// ---------------------------------------------------------------------------

void save_v1(const Metagraph& mg, std::ostream& out) {
  out << kMagicV1 << "\n";
  out << "# nodes " << mg.node_count() << ", edges "
      << mg.graph().edge_count() << "\n";
  for (NodeId v = 0; v < mg.node_count(); ++v) {
    const NodeInfo& info = mg.info(v);
    out << "node\t" << v << '\t' << info.canonical_name << '\t' << info.module
        << '\t' << (info.subprogram.empty() ? "-" : info.subprogram) << '\t'
        << info.line << '\t';
    std::string flags;
    if (info.is_intrinsic) flags += 'i';
    if (info.is_prng_site) flags += 'p';
    out << (flags.empty() ? "-" : flags) << '\n';
  }
  for (const auto& [u, v] : mg.graph().edges()) {
    out << "edge\t" << u << '\t' << v << '\n';
  }
  for (const auto& [label, nodes] : mg.io_map()) {
    out << "io\t" << label;
    for (NodeId v : nodes) out << '\t' << v;
    out << '\n';
  }
}

unsigned long parse_num(const std::string& field, const char* what) {
  try {
    std::size_t pos = 0;
    const unsigned long value = std::stoul(field, &pos);
    if (pos != field.size()) throw Error(std::string("trailing junk in ") + what);
    return value;
  } catch (const Error&) {
    throw;
  } catch (const std::exception&) {
    throw Error(std::string("load_metagraph: bad ") + what + " '" + field +
                "'");
  }
}

Metagraph load_v1(std::istream& in) {
  Metagraph mg;
  // Buffered edges/io resolved after all nodes exist.
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::vector<std::pair<std::string, std::vector<NodeId>>> io;
  NodeId expected_id = 0;

  std::string line;
  while (std::getline(in, line)) {
    std::string_view sv = trim(line);
    if (sv.empty() || sv.front() == '#') continue;
    const std::vector<std::string> fields = split(std::string(sv), '\t');
    const std::string& kind = fields[0];
    if (kind == "node") {
      if (fields.size() != 7) throw Error("load_metagraph: bad node line");
      const NodeId id = static_cast<NodeId>(parse_num(fields[1], "node id"));
      if (id != expected_id++) {
        throw Error("load_metagraph: node ids must be dense and ordered");
      }
      const std::string& canonical = fields[2];
      const std::string& module = fields[3];
      const std::string subprogram = fields[4] == "-" ? "" : fields[4];
      const int decl_line =
          static_cast<int>(parse_num(fields[5], "node line"));
      const bool is_intrinsic = fields[6].find('i') != std::string::npos;
      const bool is_prng = fields[6].find('p') != std::string::npos;
      const NodeId got = mg.intern(module, subprogram, canonical, decl_line,
                                   is_intrinsic, is_prng);
      if (got != id) {
        throw Error("load_metagraph: duplicate node identity for id " +
                    fields[1]);
      }
    } else if (kind == "edge") {
      if (fields.size() != 3) throw Error("load_metagraph: bad edge line");
      edges.emplace_back(static_cast<NodeId>(parse_num(fields[1], "edge u")),
                         static_cast<NodeId>(parse_num(fields[2], "edge v")));
    } else if (kind == "io") {
      if (fields.size() < 2) throw Error("load_metagraph: bad io line");
      std::vector<NodeId> nodes;
      for (std::size_t i = 2; i < fields.size(); ++i) {
        nodes.push_back(static_cast<NodeId>(parse_num(fields[i], "io node")));
      }
      io.emplace_back(fields[1], std::move(nodes));
    } else {
      throw Error("load_metagraph: unknown record '" + kind + "'");
    }
  }

  for (const auto& [u, v] : edges) {
    if (u >= mg.node_count() || v >= mg.node_count()) {
      throw Error("load_metagraph: edge references unknown node");
    }
    mg.add_edge(u, v);
  }
  for (const auto& [label, nodes] : io) {
    for (NodeId v : nodes) {
      if (v >= mg.node_count()) {
        throw Error("load_metagraph: io map references unknown node");
      }
      mg.add_io_mapping(label, v);
    }
  }
  mg.seal();
  return mg;
}

// ---------------------------------------------------------------------------
// v2 binary format
// ---------------------------------------------------------------------------

void append_str(std::string& out, const std::string& s) {
  detail::append_varint(out, s.size());
  out.append(s);
}

void append_section(std::string& out, char tag, const std::string& payload) {
  out.push_back(tag);
  detail::append_varint(out, payload.size());
  out.append(payload);
}

void save_v2(const Metagraph& mg, std::ostream& out) {
  std::string body;

  std::string nodes;
  detail::append_varint(nodes, mg.node_count());
  for (NodeId v = 0; v < mg.node_count(); ++v) {
    const NodeInfo& info = mg.info(v);
    append_str(nodes, info.canonical_name);
    append_str(nodes, info.module);
    append_str(nodes, info.subprogram);
    detail::append_varint(nodes, static_cast<std::uint64_t>(info.line));
    const std::uint8_t flags = (info.is_intrinsic ? 0x01 : 0x00) |
                               (info.is_prng_site ? 0x02 : 0x00);
    nodes.push_back(static_cast<char>(flags));
  }
  append_section(body, 'N', nodes);

  // Edges come out of Digraph ordered by u, so delta-encoding u compresses
  // the common consecutive-source runs to a single byte.
  std::string edges;
  detail::append_varint(edges, mg.graph().edge_count());
  NodeId prev_u = 0;
  for (const auto& [u, v] : mg.graph().edges()) {
    detail::append_varint(edges, u - prev_u);
    detail::append_varint(edges, v);
    prev_u = u;
  }
  append_section(body, 'E', edges);

  std::string io;
  detail::append_varint(io, mg.io_map().size());
  for (const auto& [label, ids] : mg.io_map()) {
    append_str(io, label);
    detail::append_varint(io, ids.size());
    for (NodeId v : ids) detail::append_varint(io, v);
  }
  append_section(body, 'I', io);

  std::string checksum;
  const std::uint64_t h = fnv1a64(body);
  for (int i = 0; i < 8; ++i) {
    checksum.push_back(static_cast<char>((h >> (8 * i)) & 0xFF));
  }
  append_section(body, 'Z', checksum);

  out << kMagicV2 << "\n";
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
}

/// Bounds-checked cursor over a v2 byte buffer; every read throws rca::Error
/// on truncation instead of walking off the end.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::size_t pos() const { return pos_; }
  bool done() const { return pos_ == bytes_.size(); }

  std::uint8_t read_byte() {
    if (pos_ >= bytes_.size()) throw Error("load_metagraph: truncated v2 data");
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }

  std::uint64_t read_varint() {
    std::uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t b = read_byte();
      value |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        if (shift == 63 && (b & 0x7E) != 0) {
          throw Error("load_metagraph: varint overflow");
        }
        return value;
      }
    }
    throw Error("load_metagraph: varint too long");
  }

  std::string_view read_bytes(std::size_t n) {
    if (n > bytes_.size() - pos_) {
      throw Error("load_metagraph: truncated v2 data");
    }
    std::string_view sv = bytes_.substr(pos_, n);
    pos_ += n;
    return sv;
  }

  std::string read_str() {
    const std::uint64_t len = read_varint();
    if (len > bytes_.size()) throw Error("load_metagraph: string too long");
    return std::string(read_bytes(static_cast<std::size_t>(len)));
  }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

NodeId checked_node_id(std::uint64_t raw, std::uint64_t node_count,
                       const char* what) {
  if (raw >= node_count) {
    throw Error(std::string("load_metagraph: ") + what +
                " references unknown node");
  }
  return static_cast<NodeId>(raw);
}

Metagraph load_v2(std::istream& in) {
  const std::string body((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());

  // Pass 1 — frame the sections and verify the checksum trailer before any
  // payload is interpreted.
  struct Section {
    char tag;
    std::string_view payload;
  };
  std::vector<Section> sections;
  std::size_t trailer_offset = 0;
  {
    Reader frame{std::string_view(body)};
    while (!frame.done()) {
      const std::size_t header_at = frame.pos();
      const char tag = static_cast<char>(frame.read_byte());
      const std::uint64_t len = frame.read_varint();
      if (len > body.size()) throw Error("load_metagraph: bad section length");
      const std::string_view payload =
          frame.read_bytes(static_cast<std::size_t>(len));
      sections.push_back(Section{tag, payload});
      if (tag == 'Z') {
        trailer_offset = header_at;
        if (!frame.done()) {
          throw Error("load_metagraph: trailing bytes after checksum");
        }
      }
    }
  }
  static constexpr char kExpectedTags[] = {'N', 'E', 'I', 'Z'};
  if (sections.size() != 4) {
    throw Error("load_metagraph: v2 snapshot must have N, E, I, Z sections");
  }
  for (std::size_t i = 0; i < 4; ++i) {
    if (sections[i].tag != kExpectedTags[i]) {
      throw Error(std::string("load_metagraph: unexpected section '") +
                  sections[i].tag + "'");
    }
  }
  if (sections[3].payload.size() != 8) {
    throw Error("load_metagraph: bad checksum trailer");
  }
  std::uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<std::uint64_t>(
                  static_cast<std::uint8_t>(sections[3].payload[i]))
              << (8 * i);
  }
  const std::uint64_t actual =
      fnv1a64(std::string_view(body).substr(0, trailer_offset));
  if (stored != actual) {
    // The offset and both digests go into the message so the cache layer can
    // log exactly where the payload diverged from its trailer.
    char detail_buf[96];
    std::snprintf(detail_buf, sizeof(detail_buf),
                  "stored %016llx != actual %016llx over bytes [0, %zu)",
                  static_cast<unsigned long long>(stored),
                  static_cast<unsigned long long>(actual), trailer_offset);
    throw Error(std::string("load_metagraph: checksum mismatch (corrupt "
                            "snapshot): ") +
                detail_buf);
  }

  // Pass 2 — parse the verified payloads.
  Metagraph mg;

  Reader nodes{sections[0].payload};
  const std::uint64_t node_count = nodes.read_varint();
  for (std::uint64_t id = 0; id < node_count; ++id) {
    const std::string canonical = nodes.read_str();
    const std::string module = nodes.read_str();
    const std::string subprogram = nodes.read_str();
    const std::uint64_t line = nodes.read_varint();
    const std::uint8_t flags = nodes.read_byte();
    if ((flags & ~0x03) != 0) throw Error("load_metagraph: bad node flags");
    const NodeId got =
        mg.intern(module, subprogram, canonical, static_cast<int>(line),
                  (flags & 0x01) != 0, (flags & 0x02) != 0);
    if (got != id) {
      throw Error("load_metagraph: duplicate node identity for id " +
                  std::to_string(id));
    }
  }
  if (!nodes.done()) throw Error("load_metagraph: trailing bytes in N section");

  Reader edges{sections[1].payload};
  const std::uint64_t edge_count = edges.read_varint();
  std::uint64_t prev_u = 0;
  for (std::uint64_t i = 0; i < edge_count; ++i) {
    prev_u += edges.read_varint();
    const NodeId u = checked_node_id(prev_u, node_count, "edge");
    const NodeId v = checked_node_id(edges.read_varint(), node_count, "edge");
    mg.add_edge(u, v);
  }
  if (!edges.done()) throw Error("load_metagraph: trailing bytes in E section");

  Reader io{sections[2].payload};
  const std::uint64_t label_count = io.read_varint();
  for (std::uint64_t i = 0; i < label_count; ++i) {
    const std::string label = io.read_str();
    const std::uint64_t n = io.read_varint();
    for (std::uint64_t j = 0; j < n; ++j) {
      mg.add_io_mapping(label,
                        checked_node_id(io.read_varint(), node_count, "io"));
    }
  }
  if (!io.done()) throw Error("load_metagraph: trailing bytes in I section");
  mg.seal();

  return mg;
}

}  // namespace

void save_metagraph(const Metagraph& mg, std::ostream& out,
                    SnapshotFormat format) {
  if (format == SnapshotFormat::kV2Binary) {
    save_v2(mg, out);
  } else {
    save_v1(mg, out);
  }
}

std::string save_metagraph_to_string(const Metagraph& mg,
                                     SnapshotFormat format) {
  std::ostringstream os;
  save_metagraph(mg, os, format);
  return os.str();
}

Metagraph load_metagraph(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    throw Error("load_metagraph: bad magic line");
  }
  const std::string magic{trim(line)};  // tolerate CRLF magic lines
  if (magic == kMagicV1) return load_v1(in);
  if (magic == kMagicV2) return load_v2(in);
  throw Error("load_metagraph: bad magic line");
}

Metagraph load_metagraph_from_string(const std::string& text) {
  std::istringstream is(text);
  return load_metagraph(is);
}

}  // namespace rca::meta
