#include <gtest/gtest.h>

#include <memory>

#include "cov/coverage_filter.hpp"
#include "graph/bfs.hpp"
#include "lang/parser.hpp"
#include "meta/builder.hpp"
#include "slice/slicer.hpp"

namespace rca::slice {
namespace {

using graph::NodeId;

constexpr const char* kCorpus = R"(
module shr
  integer, parameter :: n = 4
end module
module land
  use shr, only: n
  real :: soil(n)
contains
  subroutine land_step()
    soil = 0.5
  end subroutine
end module
module atm
  use shr, only: n
  use land, only: soil
  real :: temp(n)
  real :: cloud(n)
  real :: unrelated(n)
contains
  subroutine physics()
    integer :: i
    do i = 1, n
      temp(i) = soil(i) * 0.2 + 0.4
      cloud(i) = temp(i) * 0.8
      unrelated(i) = 1.0
    end do
    call outfld('CLOUD', cloud)
    call outfld('JUNK', unrelated)
  end subroutine
end module
)";

class SliceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<lang::SourceFile>(
        lang::Parser("<test>", kCorpus).parse_file());
    std::vector<const lang::Module*> mods;
    for (const auto& m : file_->modules) mods.push_back(&m);
    mg_ = meta::build_metagraph(mods);
  }

  std::unique_ptr<lang::SourceFile> file_;
  meta::Metagraph mg_;
};

TEST_F(SliceTest, InternalNamesForOutputLabel) {
  auto names = internal_names_for_output(mg_, "cloud");
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "cloud");
  EXPECT_TRUE(internal_names_for_output(mg_, "nosuch").empty());
}

TEST_F(SliceTest, BackwardSliceContainsExactAncestry) {
  SliceResult result = backward_slice(mg_, {"cloud"});
  // cloud <- temp <- soil; 'unrelated' must not appear.
  auto contains = [&](const char* module, const char* sub, const char* name) {
    const NodeId v = mg_.find(module, sub, name);
    EXPECT_NE(v, graph::kInvalidNode);
    return std::find(result.nodes.begin(), result.nodes.end(), v) !=
           result.nodes.end();
  };
  EXPECT_TRUE(contains("atm", "", "cloud"));
  EXPECT_TRUE(contains("atm", "", "temp"));
  EXPECT_TRUE(contains("land", "", "soil"));
  EXPECT_FALSE(contains("atm", "", "unrelated"));
}

TEST_F(SliceTest, ModuleFilterCutsCrossComponentPaths) {
  SliceOptions opts;
  opts.module_filter = [](const std::string& m) { return m == "atm"; };
  SliceResult result = backward_slice(mg_, {"cloud"}, opts);
  const NodeId soil = mg_.find("land", "", "soil");
  EXPECT_EQ(std::find(result.nodes.begin(), result.nodes.end(), soil),
            result.nodes.end());
  const NodeId temp = mg_.find("atm", "", "temp");
  EXPECT_NE(std::find(result.nodes.begin(), result.nodes.end(), temp),
            result.nodes.end());
}

TEST_F(SliceTest, SubgraphEdgesMatchInducedAncestry) {
  SliceResult result = backward_slice(mg_, {"cloud"});
  // Every edge of the subgraph exists in the full graph between the mapped
  // nodes (induced-subgraph soundness).
  for (const auto& [u, v] : result.subgraph.edges()) {
    EXPECT_TRUE(mg_.graph().has_edge(result.nodes[u], result.nodes[v]));
  }
}

TEST_F(SliceTest, UnknownCanonicalTargetThrows) {
  EXPECT_THROW(backward_slice(mg_, {"does_not_exist"}), Error);
}

TEST_F(SliceTest, SliceFromNodeIds) {
  const NodeId temp = mg_.find("atm", "", "temp");
  SliceResult result = backward_slice_nodes(mg_, {temp});
  // temp's ancestry excludes cloud (its descendant).
  const NodeId cloud = mg_.find("atm", "", "cloud");
  EXPECT_EQ(std::find(result.nodes.begin(), result.nodes.end(), cloud),
            result.nodes.end());
  EXPECT_EQ(result.targets, std::vector<NodeId>{temp});
}

TEST_F(SliceTest, DropSmallComponents) {
  // Slicing on two disconnected criteria keeps both unless the small
  // component is dropped.
  SliceResult both = backward_slice(mg_, {"cloud", "unrelated"});
  SliceOptions opts;
  opts.drop_components_smaller_than = 3;
  SliceResult filtered = backward_slice(mg_, {"cloud", "unrelated"}, opts);
  EXPECT_GT(both.nodes.size(), filtered.nodes.size());
  const NodeId unrelated = mg_.find("atm", "", "unrelated");
  EXPECT_EQ(std::find(filtered.nodes.begin(), filtered.nodes.end(), unrelated),
            filtered.nodes.end());
}

TEST(CoverageFilterTest, KeepAllByDefault) {
  cov::CoverageFilter filter;
  EXPECT_TRUE(filter.keep_module("anything"));
  EXPECT_TRUE(filter.keep_subprogram("anything", "whatever"));
}

TEST(CoverageFilterTest, RecorderBackedFiltering) {
  interp::CoverageRecorder recorder;
  recorder.record("mod_a", "sub_1");
  cov::CoverageFilter filter(recorder);
  EXPECT_TRUE(filter.keep_module("mod_a"));
  EXPECT_FALSE(filter.keep_module("mod_b"));
  EXPECT_TRUE(filter.keep_subprogram("mod_a", "sub_1"));
  EXPECT_FALSE(filter.keep_subprogram("mod_a", "sub_2"));
}

TEST(CoverageFilterTest, KeepsDeclarationOnlyModulesGivenTheModuleList) {
  lang::Parser parser("<t>", R"(
module decls
  integer, parameter :: n = 4
end module
module idle
contains
  subroutine never()
  end subroutine
end module
)");
  lang::SourceFile file = parser.parse_file();
  std::vector<const lang::Module*> mods;
  for (const auto& m : file.modules) mods.push_back(&m);

  // Neither module executed. Without the module list the filter cannot tell
  // a declaration-only module from an idle one and drops both.
  const interp::CoverageRecorder recorder;
  EXPECT_FALSE(cov::CoverageFilter(recorder).keep_module("decls"));
  const cov::CoverageFilter filter(recorder, &mods);
  EXPECT_TRUE(filter.keep_module("decls"));
  EXPECT_FALSE(filter.keep_module("idle"));
  EXPECT_FALSE(filter.keep_subprogram("idle", "never"));
}

TEST(CoverageFilterTest, FilterStatsComputeReductions) {
  lang::Parser parser("<t>", R"(
module covered
contains
  subroutine used()
    real :: a
    a = 1.0
  end subroutine
  subroutine unused()
    real :: b
    b = 2.0
  end subroutine
end module
module uncovered
contains
  subroutine never()
    real :: c
    c = 3.0
  end subroutine
end module
)");
  lang::SourceFile file = parser.parse_file();
  std::vector<const lang::Module*> mods;
  for (const auto& m : file.modules) mods.push_back(&m);

  interp::CoverageRecorder recorder;
  recorder.record("covered", "used");
  cov::CoverageFilter filter(recorder);
  cov::FilterStats stats = cov::compute_filter_stats(mods, filter);
  EXPECT_EQ(stats.modules_total, 2u);
  EXPECT_EQ(stats.modules_kept, 1u);
  EXPECT_EQ(stats.subprograms_total, 3u);
  EXPECT_EQ(stats.subprograms_kept, 1u);
  EXPECT_DOUBLE_EQ(stats.module_reduction(), 0.5);
  EXPECT_NEAR(stats.subprogram_reduction(), 2.0 / 3.0, 1e-12);
  EXPECT_GT(stats.lines_total, stats.lines_kept);
}

}  // namespace
}  // namespace rca::slice
