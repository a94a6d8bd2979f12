#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lang/parser.hpp"
#include "meta/builder.hpp"
#include "meta/serialize.hpp"
#include "meta/transaction.hpp"
#include "support/error.hpp"

namespace rca::meta {
namespace {

using graph::NodeId;

class MetaTest : public ::testing::Test {
 protected:
  Metagraph build(const std::string& source, BuilderOptions opts = {}) {
    files_.push_back(std::make_unique<lang::SourceFile>(
        lang::Parser("<test>", source).parse_file()));
    std::vector<const lang::Module*> mods;
    for (const auto& f : files_) {
      for (const auto& m : f->modules) mods.push_back(&m);
    }
    return build_metagraph(mods, opts);
  }

  std::vector<std::unique_ptr<lang::SourceFile>> files_;
};

TEST_F(MetaTest, AssignmentCreatesRhsToLhsEdges) {
  Metagraph mg = build(R"(
module m
contains
  subroutine s()
    real :: a, b, c
    c = a * 2.0 + b
  end subroutine
end module
)");
  const NodeId a = mg.find("m", "s", "a");
  const NodeId b = mg.find("m", "s", "b");
  const NodeId c = mg.find("m", "s", "c");
  ASSERT_NE(a, graph::kInvalidNode);
  EXPECT_TRUE(mg.graph().has_edge(a, c));
  EXPECT_TRUE(mg.graph().has_edge(b, c));
  EXPECT_FALSE(mg.graph().has_edge(c, a));
  EXPECT_EQ(mg.assignments_processed, 1u);
  EXPECT_EQ(mg.assignments_failed, 0u);
}

TEST_F(MetaTest, ArraysAreAtomicIndicesIgnored) {
  // Paper §4.2: arrays are atomic; subscripts contribute no edges.
  Metagraph mg = build(R"(
module m
  real :: a(4), b(4)
contains
  subroutine s()
    integer :: i
    do i = 1, 4
      b(i) = a(i)
    end do
  end subroutine
end module
)");
  const NodeId a = mg.find("m", "", "a");
  const NodeId b = mg.find("m", "", "b");
  const NodeId i = mg.find("m", "s", "i");
  EXPECT_TRUE(mg.graph().has_edge(a, b));
  // The loop index is not a source of the element assignment.
  if (i != graph::kInvalidNode) {
    EXPECT_FALSE(mg.graph().has_edge(i, b));
  }
}

TEST_F(MetaTest, DerivedTypeCanonicalNames) {
  Metagraph mg = build(R"(
module m
  type state_t
    real :: omega(4)
  end type
  type(state_t) :: state
contains
  subroutine s()
    real :: w
    state%omega(1) = w * 2.0
  end subroutine
end module
)");
  // state%omega canonicalizes to "omega", owned at module level.
  const NodeId omega = mg.find("m", "", "omega");
  ASSERT_NE(omega, graph::kInvalidNode);
  EXPECT_EQ(mg.info(omega).canonical_name, "omega");
  const NodeId w = mg.find("m", "s", "w");
  EXPECT_TRUE(mg.graph().has_edge(w, omega));
  EXPECT_EQ(mg.by_canonical("omega").size(), 1u);
}

TEST_F(MetaTest, IntrinsicsLocalizedPerCallSite) {
  Metagraph mg = build(R"(
module m
contains
  subroutine s()
    real :: a, b, c
    b = max(a, 0.0)
    c = max(a, 1.0)
  end subroutine
end module
)");
  // Two max() call sites become two distinct localized nodes.
  std::size_t intrinsic_nodes = 0;
  for (NodeId v = 0; v < mg.node_count(); ++v) {
    if (mg.info(v).is_intrinsic) ++intrinsic_nodes;
  }
  EXPECT_EQ(intrinsic_nodes, 2u);
  const NodeId a = mg.find("m", "s", "a");
  const NodeId b = mg.find("m", "s", "b");
  // Path a -> max_site -> b exists but no direct a -> b edge.
  EXPECT_FALSE(mg.graph().has_edge(a, b));
  bool through_site = false;
  for (NodeId mid : mg.graph().out_neighbors(a)) {
    if (mg.info(mid).is_intrinsic && mg.graph().has_edge(mid, b)) {
      through_site = true;
    }
  }
  EXPECT_TRUE(through_site);
}

TEST_F(MetaTest, FunctionCallMapsArgumentsAndResult) {
  Metagraph mg = build(R"(
module m
contains
  function f(x) result(y)
    real :: x, y
    y = x * 2.0
  end function
  subroutine s()
    real :: a, out
    out = f(a)
  end subroutine
end module
)");
  const NodeId a = mg.find("m", "s", "a");
  const NodeId x = mg.find("m", "f", "x");
  const NodeId y = mg.find("m", "f", "y");
  const NodeId out = mg.find("m", "s", "out");
  EXPECT_TRUE(mg.graph().has_edge(a, x));   // argument binding
  EXPECT_TRUE(mg.graph().has_edge(x, y));   // function body
  EXPECT_TRUE(mg.graph().has_edge(y, out)); // result flows to consumer
}

TEST_F(MetaTest, FunctionVsArrayDisambiguation) {
  // `f(i)` must resolve to the array when a declaration shadows a function
  // of the same name elsewhere.
  Metagraph mg = build(R"(
module lib
contains
  function f(x) result(y)
    real :: x, y
    y = x
  end function
end module
module m
  real :: f(4)
contains
  subroutine s()
    real :: out
    out = f(2)
  end subroutine
end module
)");
  const NodeId arr = mg.find("m", "", "f");
  const NodeId out = mg.find("m", "s", "out");
  ASSERT_NE(arr, graph::kInvalidNode);
  EXPECT_TRUE(mg.graph().has_edge(arr, out));
  // The library function body was never bound from this call.
  const NodeId fx = mg.find("lib", "f", "x");
  if (fx != graph::kInvalidNode) {
    EXPECT_FALSE(mg.graph().has_edge(fx, out));
  }
}

TEST_F(MetaTest, SubroutineIntentControlsEdgeDirection) {
  Metagraph mg = build(R"(
module m
contains
  subroutine op(a, b, c)
    real, intent(in) :: a
    real, intent(out) :: b
    real, intent(inout) :: c
    b = a + c
    c = b
  end subroutine
  subroutine s()
    real :: x, y, z
    call op(x, y, z)
  end subroutine
end module
)");
  const NodeId x = mg.find("m", "s", "x");
  const NodeId y = mg.find("m", "s", "y");
  const NodeId z = mg.find("m", "s", "z");
  const NodeId a = mg.find("m", "op", "a");
  const NodeId b = mg.find("m", "op", "b");
  const NodeId c = mg.find("m", "op", "c");
  EXPECT_TRUE(mg.graph().has_edge(x, a));   // in
  EXPECT_FALSE(mg.graph().has_edge(a, x));
  EXPECT_TRUE(mg.graph().has_edge(b, y));   // out
  EXPECT_FALSE(mg.graph().has_edge(y, b));
  EXPECT_TRUE(mg.graph().has_edge(z, c));   // inout: both
  EXPECT_TRUE(mg.graph().has_edge(c, z));
}

TEST_F(MetaTest, InterfaceMapsToAllCandidates) {
  // Paper §4: static analysis cannot resolve generic calls; map all.
  Metagraph mg = build(R"(
module m
  interface gen
    module procedure impl_a, impl_b
  end interface
contains
  function impl_a(x) result(r)
    real :: x, r
    r = x + 1.0
  end function
  function impl_b(x) result(r)
    real :: x, r
    r = x + 2.0
  end function
  subroutine s()
    real :: v, out
    out = gen(v)
  end subroutine
end module
)");
  const NodeId v = mg.find("m", "s", "v");
  const NodeId xa = mg.find("m", "impl_a", "x");
  const NodeId xb = mg.find("m", "impl_b", "x");
  EXPECT_TRUE(mg.graph().has_edge(v, xa));
  EXPECT_TRUE(mg.graph().has_edge(v, xb));
}

TEST_F(MetaTest, UseRenameResolvesToOwningModule) {
  Metagraph mg = build(R"(
module provider
  real :: shared
end module
module client
  use provider, only: local => shared
contains
  subroutine s()
    real :: x
    x = local * 2.0
  end subroutine
end module
)");
  // `local` resolves to provider's `shared` node.
  const NodeId shared = mg.find("provider", "", "shared");
  const NodeId x = mg.find("client", "s", "x");
  ASSERT_NE(shared, graph::kInvalidNode);
  EXPECT_TRUE(mg.graph().has_edge(shared, x));
  EXPECT_EQ(mg.find("client", "", "local"), graph::kInvalidNode);
}

TEST_F(MetaTest, OutfldBuildsIoMap) {
  Metagraph mg = build(R"(
module m
  real :: flwds(4)
contains
  subroutine s()
    flwds = 1.0
    call outfld('FLDS', flwds)
  end subroutine
end module
)");
  auto it = mg.io_map().find("flds");
  ASSERT_NE(it, mg.io_map().end());
  ASSERT_EQ(it->second.size(), 1u);
  EXPECT_EQ(mg.info(it->second[0]).canonical_name, "flwds");
}

TEST_F(MetaTest, PrngCallSitesAreMarked) {
  Metagraph mg = build(R"(
module m
  real :: rnd(4)
contains
  subroutine s()
    real :: emis
    call shr_rand_uniform(rnd)
    emis = rnd(1) * 0.3
  end subroutine
end module
)");
  std::size_t prng_sites = 0;
  for (NodeId v = 0; v < mg.node_count(); ++v) {
    if (mg.info(v).is_prng_site) {
      ++prng_sites;
      const NodeId rnd = mg.find("m", "", "rnd");
      EXPECT_TRUE(mg.graph().has_edge(v, rnd));
    }
  }
  EXPECT_EQ(prng_sites, 1u);
}

TEST_F(MetaTest, CoverageFilterExcludesSubprograms) {
  BuilderOptions opts;
  opts.subprogram_filter = [](const std::string&, const std::string& sub) {
    return sub != "dead";
  };
  Metagraph mg = build(R"(
module m
contains
  subroutine live()
    real :: a
    a = 1.0
  end subroutine
  subroutine dead()
    real :: b
    b = 2.0
  end subroutine
end module
)",
                       opts);
  EXPECT_NE(mg.find("m", "live", "a"), graph::kInvalidNode);
  EXPECT_EQ(mg.find("m", "dead", "b"), graph::kInvalidNode);
}

TEST_F(MetaTest, UniqueNamesFollowPaperConvention) {
  Metagraph mg = build(R"(
module micro_mg
contains
  subroutine micro_mg_tend()
    real :: dum
    dum = 1.0
  end subroutine
end module
)");
  const NodeId dum = mg.find("micro_mg", "micro_mg_tend", "dum");
  ASSERT_NE(dum, graph::kInvalidNode);
  EXPECT_EQ(mg.info(dum).unique_name, "dum__micro_mg_tend");
}

TEST_F(MetaTest, ModuleClassesPartitionNodes) {
  Metagraph mg = build(R"(
module a
  real :: x
contains
  subroutine s()
    x = 1.0
  end subroutine
end module
module b
  use a, only: x
  real :: y
contains
  subroutine t()
    y = x
  end subroutine
end module
)");
  auto classes = mg.module_classes();
  ASSERT_EQ(classes.size(), mg.node_count());
  for (NodeId v = 0; v < mg.node_count(); ++v) {
    EXPECT_LT(classes[v], mg.modules().size());
    EXPECT_EQ(mg.modules()[classes[v]], mg.info(v).module);
  }
}

TEST_F(MetaTest, WatchKeyRoundTrips) {
  Metagraph mg = build(R"(
module m
  real :: field
contains
  subroutine s()
    real :: local
    local = 1.0
    field = local
  end subroutine
end module
)");
  const NodeId field = mg.find("m", "", "field");
  const interp::WatchKey key = mg.watch_key(field);
  EXPECT_EQ(key.module, "m");
  EXPECT_EQ(key.subprogram, "");
  EXPECT_EQ(key.name, "field");
}

// ---------------------------------------------------------------------------
// Seal contract: every producer builds the digraph once, over all nodes
// ---------------------------------------------------------------------------

/// The tests/golden fixture corpus, parsed in sorted-path order like
/// `rca-tool graph` does.
std::vector<lang::SourceFile> golden_files() {
  std::vector<std::pair<std::string, std::string>> sources;
  for (const auto& entry :
       std::filesystem::directory_iterator(RCA_GOLDEN_DIR)) {
    if (entry.path().extension() != ".F90") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    sources.emplace_back(entry.path().string(), text.str());
  }
  std::sort(sources.begin(), sources.end());
  std::vector<lang::SourceFile> files;
  for (const auto& [path, text] : sources) {
    files.push_back(lang::Parser(path, text).parse_file());
  }
  return files;
}

TEST(MetagraphSeal, InternAndAddEdgeAfterSealThrow) {
  Metagraph mg;
  const NodeId a = mg.intern("m", "", "a", 1);
  const NodeId b = mg.intern("m", "", "b", 2);
  mg.add_edge(a, b);
  mg.add_edge(b, b);  // self-loop: dropped by seal()
  mg.add_edge(a, b);  // duplicate: dropped by seal()
  EXPECT_EQ(mg.graph().node_count(), 0u);  // nothing built before seal()
  EXPECT_THROW(mg.node_table(), Error);    // the table is not frozen yet
  mg.seal();
  EXPECT_EQ(mg.graph().node_count(), 2u);
  EXPECT_EQ(mg.graph().edge_count(), 1u);
  EXPECT_THROW(mg.intern("m", "", "c", 3), Error);
  EXPECT_THROW(mg.intern("m", "", "a", 1), Error);  // even a known key
  EXPECT_THROW(mg.add_edge(a, b), Error);
  EXPECT_THROW(mg.add_io_mapping("out", a), Error);
  EXPECT_THROW(mg.seal(), Error);
}

TEST(MetagraphSeal, EveryProducerSealsOverAllNodes) {
  const std::vector<lang::SourceFile> files = golden_files();
  std::vector<const lang::Module*> mods;
  std::vector<TxnInput> inputs;
  for (const auto& f : files) {
    for (const auto& m : f.modules) {
      mods.push_back(&m);
      inputs.push_back(TxnInput{f.path, &m, /*dirty=*/true, nullptr});
    }
  }

  Metagraph built = build_metagraph(mods);
  ASSERT_GT(built.node_count(), 0u);
  ASSERT_GT(built.graph().edge_count(), 0u);
  EXPECT_EQ(built.graph().node_count(), built.node_count());
  EXPECT_THROW(built.intern("m", "", "late", 1), Error);

  for (SnapshotFormat format :
       {SnapshotFormat::kV1Text, SnapshotFormat::kV2Binary}) {
    Metagraph loaded =
        load_metagraph_from_string(save_metagraph_to_string(built, format));
    EXPECT_EQ(loaded.graph().node_count(), loaded.node_count());
    EXPECT_EQ(loaded.graph().edges(), built.graph().edges());
    EXPECT_THROW(loaded.add_edge(0, 1), Error);
  }

  const TxnResult txn = run_transaction(inputs, nullptr, BuilderOptions{});
  EXPECT_EQ(txn.mg->graph().node_count(), txn.mg->node_count());
  EXPECT_EQ(txn.mg->graph().edges(), built.graph().edges());
}

}  // namespace
}  // namespace rca::meta
