#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "lang/parser.hpp"
#include "meta/builder.hpp"
#include "meta/serialize.hpp"
#include "model/corpus.hpp"
#include "model/model.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace rca::meta {
namespace {

Metagraph sample_metagraph(std::unique_ptr<lang::SourceFile>* keep_alive) {
  *keep_alive = std::make_unique<lang::SourceFile>(
      lang::Parser("<t>", R"(
module m
  real :: rnd(4)
  real :: flwds(4)
contains
  subroutine s()
    real :: emis
    call shr_rand_uniform(rnd)
    emis = rnd(1) * 0.3 + 0.6
    flwds = emis * 0.8 + max(emis, 0.1)
    call outfld('FLDS', flwds)
  end subroutine
end module
)")
          .parse_file());
  std::vector<const lang::Module*> mods;
  for (const auto& mod : (*keep_alive)->modules) mods.push_back(&mod);
  return build_metagraph(mods);
}

TEST(Serialize, RoundTripPreservesEverything) {
  std::unique_ptr<lang::SourceFile> keep;
  Metagraph original = sample_metagraph(&keep);
  const std::string text = save_metagraph_to_string(original);
  Metagraph loaded = load_metagraph_from_string(text);

  ASSERT_EQ(loaded.node_count(), original.node_count());
  EXPECT_EQ(loaded.graph().edge_count(), original.graph().edge_count());
  for (graph::NodeId v = 0; v < original.node_count(); ++v) {
    EXPECT_EQ(loaded.info(v).canonical_name, original.info(v).canonical_name);
    EXPECT_EQ(loaded.info(v).module, original.info(v).module);
    EXPECT_EQ(loaded.info(v).subprogram, original.info(v).subprogram);
    EXPECT_EQ(loaded.info(v).is_intrinsic, original.info(v).is_intrinsic);
    EXPECT_EQ(loaded.info(v).is_prng_site, original.info(v).is_prng_site);
    EXPECT_EQ(loaded.info(v).line, original.info(v).line);
  }
  for (const auto& [u, v] : original.graph().edges()) {
    EXPECT_TRUE(loaded.graph().has_edge(u, v));
  }
  ASSERT_EQ(loaded.io_map().size(), original.io_map().size());
  EXPECT_EQ(loaded.io_map().at("flds"), original.io_map().at("flds"));
}

TEST(Serialize, SecondSaveIsIdentical) {
  std::unique_ptr<lang::SourceFile> keep;
  Metagraph original = sample_metagraph(&keep);
  const std::string a = save_metagraph_to_string(original);
  Metagraph loaded = load_metagraph_from_string(a);
  EXPECT_EQ(save_metagraph_to_string(loaded), a);
}

TEST(Serialize, RejectsBadMagic) {
  EXPECT_THROW(load_metagraph_from_string("not-a-metagraph\n"), Error);
}

TEST(Serialize, RejectsDanglingEdge) {
  const std::string text =
      "rca-metagraph 1\n"
      "node\t0\ta\tm\t-\t1\t-\n"
      "edge\t0\t7\n";
  EXPECT_THROW(load_metagraph_from_string(text), Error);
}

TEST(Serialize, RejectsUnknownRecord) {
  const std::string text = "rca-metagraph 1\nwhatever\t1\n";
  EXPECT_THROW(load_metagraph_from_string(text), Error);
}

TEST(Serialize, CorpusScaleRoundTrip) {
  model::CesmModel model(model::CorpusSpec{});
  Metagraph mg = build_metagraph(model.compiled_modules());
  Metagraph loaded = load_metagraph_from_string(save_metagraph_to_string(mg));
  EXPECT_EQ(loaded.node_count(), mg.node_count());
  EXPECT_EQ(loaded.graph().edge_count(), mg.graph().edge_count());
  EXPECT_EQ(loaded.by_canonical("dum").size(), mg.by_canonical("dum").size());
  EXPECT_EQ(loaded.modules().size(), mg.modules().size());
}

// ---------------------------------------------------------------------------
// v2 binary format: round-trip stability, v1<->v2 conversion, and an
// adversarial suite — every malformed buffer must throw rca::Error, never
// crash or load silently-wrong data.
// ---------------------------------------------------------------------------

TEST(SerializeV2, SaveLoadSaveIsByteStable) {
  std::unique_ptr<lang::SourceFile> keep;
  Metagraph original = sample_metagraph(&keep);
  const std::string bin =
      save_metagraph_to_string(original, SnapshotFormat::kV2Binary);
  ASSERT_EQ(bin.rfind("rca-metagraph 2\n", 0), 0u);
  Metagraph loaded = load_metagraph_from_string(bin);
  EXPECT_EQ(save_metagraph_to_string(loaded, SnapshotFormat::kV2Binary), bin);
}

TEST(SerializeV2, ConversionPreservesTheGraphBothWays) {
  std::unique_ptr<lang::SourceFile> keep;
  Metagraph original = sample_metagraph(&keep);
  const std::string v1 = save_metagraph_to_string(original);
  // v1 -> load -> v2 -> load -> v1 must reproduce the original text.
  Metagraph from_v1 = load_metagraph_from_string(v1);
  const std::string v2 =
      save_metagraph_to_string(from_v1, SnapshotFormat::kV2Binary);
  Metagraph from_v2 = load_metagraph_from_string(v2);
  EXPECT_EQ(save_metagraph_to_string(from_v2), v1);
  // Flags and io map survive the binary hop.
  ASSERT_EQ(from_v2.node_count(), original.node_count());
  for (graph::NodeId v = 0; v < original.node_count(); ++v) {
    EXPECT_EQ(from_v2.info(v).is_intrinsic, original.info(v).is_intrinsic);
    EXPECT_EQ(from_v2.info(v).is_prng_site, original.info(v).is_prng_site);
  }
  EXPECT_EQ(from_v2.io_map().at("flds"), original.io_map().at("flds"));
}

TEST(SerializeV2, CorpusScaleConversionIsExact) {
  model::CesmModel model(model::CorpusSpec{});
  Metagraph mg = build_metagraph(model.compiled_modules());
  const std::string v1 = save_metagraph_to_string(mg);
  const std::string v2 =
      save_metagraph_to_string(mg, SnapshotFormat::kV2Binary);
  EXPECT_LT(v2.size(), v1.size());  // binary must not be larger than text
  EXPECT_EQ(save_metagraph_to_string(load_metagraph_from_string(v2)), v1);
}

/// Assembles a v2 buffer from raw section payloads, with a *valid* checksum,
/// so tests reach the semantic validation behind the integrity checks.
std::string make_v2(const std::string& nodes, const std::string& edges,
                    const std::string& io) {
  std::string body;
  auto section = [&body](char tag, const std::string& payload) {
    body.push_back(tag);
    detail::append_varint(body, payload.size());
    body.append(payload);
  };
  section('N', nodes);
  section('E', edges);
  section('I', io);
  std::string checksum;
  const std::uint64_t h = fnv1a64(body);
  for (int i = 0; i < 8; ++i) {
    checksum.push_back(static_cast<char>((h >> (8 * i)) & 0xFF));
  }
  section('Z', checksum);
  return "rca-metagraph 2\n" + body;
}

std::string one_node_payload() {
  std::string nodes;
  detail::append_varint(nodes, 1);  // count
  detail::append_varint(nodes, 1);  // canonical "a"
  nodes.push_back('a');
  detail::append_varint(nodes, 1);  // module "m"
  nodes.push_back('m');
  detail::append_varint(nodes, 0);  // subprogram ""
  detail::append_varint(nodes, 3);  // line
  nodes.push_back('\0');            // flags
  return nodes;
}

std::string empty_count() {
  std::string payload;
  detail::append_varint(payload, 0);
  return payload;
}

TEST(SerializeV2, HandCraftedMinimalSnapshotLoads) {
  Metagraph mg = load_metagraph_from_string(
      make_v2(one_node_payload(), empty_count(), empty_count()));
  ASSERT_EQ(mg.node_count(), 1u);
  EXPECT_EQ(mg.info(0).canonical_name, "a");
  EXPECT_EQ(mg.info(0).module, "m");
  EXPECT_EQ(mg.info(0).line, 3);
}

TEST(SerializeV2, RejectsDanglingEdgeWithValidChecksum) {
  std::string edges;
  detail::append_varint(edges, 1);  // one edge
  detail::append_varint(edges, 0);  // delta-u = 0 -> u = 0
  detail::append_varint(edges, 7);  // v = 7, but only node 0 exists
  EXPECT_THROW(load_metagraph_from_string(
                   make_v2(one_node_payload(), edges, empty_count())),
               Error);
}

TEST(SerializeV2, RejectsDanglingIoNodeWithValidChecksum) {
  std::string io;
  detail::append_varint(io, 1);  // one label
  detail::append_varint(io, 1);
  io.push_back('x');
  detail::append_varint(io, 1);  // one id
  detail::append_varint(io, 9);  // dangling
  EXPECT_THROW(load_metagraph_from_string(
                   make_v2(one_node_payload(), empty_count(), io)),
               Error);
}

TEST(SerializeV2, RejectsOverlongNodeCount) {
  std::string nodes;
  detail::append_varint(nodes, 1000000);  // claims 1M nodes, provides none
  EXPECT_THROW(
      load_metagraph_from_string(make_v2(nodes, empty_count(), empty_count())),
      Error);
}

TEST(SerializeV2, RejectsTrailingBytesInsideASection) {
  std::string nodes = one_node_payload();
  nodes.push_back('!');  // junk after the last node record
  EXPECT_THROW(
      load_metagraph_from_string(make_v2(nodes, empty_count(), empty_count())),
      Error);
}

TEST(SerializeV2, RejectsMissingOrReorderedSections) {
  // make_v2 always emits N,E,I,Z — build a N,I,E,Z variant by hand.
  std::string body;
  auto section = [&body](char tag, const std::string& payload) {
    body.push_back(tag);
    detail::append_varint(body, payload.size());
    body.append(payload);
  };
  section('N', one_node_payload());
  section('I', empty_count());
  section('E', empty_count());
  std::string checksum;
  const std::uint64_t h = fnv1a64(body);
  for (int i = 0; i < 8; ++i) {
    checksum.push_back(static_cast<char>((h >> (8 * i)) & 0xFF));
  }
  section('Z', checksum);
  EXPECT_THROW(load_metagraph_from_string("rca-metagraph 2\n" + body), Error);
}

TEST(SerializeV2, FuzzLiteTruncationAlwaysThrows) {
  std::unique_ptr<lang::SourceFile> keep;
  Metagraph original = sample_metagraph(&keep);
  const std::string bin =
      save_metagraph_to_string(original, SnapshotFormat::kV2Binary);
  for (std::size_t len = 0; len < bin.size(); ++len) {
    EXPECT_THROW(load_metagraph_from_string(bin.substr(0, len)), Error)
        << "prefix of length " << len << " did not throw";
  }
}

TEST(SerializeV2, FuzzLiteBitFlipsAlwaysThrow) {
  std::unique_ptr<lang::SourceFile> keep;
  Metagraph original = sample_metagraph(&keep);
  const std::string bin =
      save_metagraph_to_string(original, SnapshotFormat::kV2Binary);
  // Every single-bit flip lands in the magic line (bad magic), a section
  // frame (framing error) or checksummed bytes (mismatch) — all must throw.
  SplitMix64 rng(20190807);
  for (int trial = 0; trial < 400; ++trial) {
    std::string mutated = bin;
    const std::size_t byte = rng.next() % mutated.size();
    const int bit = static_cast<int>(rng.next() % 8);
    mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
    EXPECT_THROW(load_metagraph_from_string(mutated), Error)
        << "flip at byte " << byte << " bit " << bit << " did not throw";
  }
}

}  // namespace
}  // namespace rca::meta
