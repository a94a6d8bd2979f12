#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>

#include "cov/coverage_filter.hpp"
#include "meta/builder.hpp"
#include "model/corpus.hpp"
#include "model/model.hpp"
#include "model/scenario.hpp"

namespace rca::model {
namespace {

/// Shared control model (construction parses ~80 modules; reuse it).
const CesmModel& control() {
  static const CesmModel* model = new CesmModel(CorpusSpec{});
  return *model;
}

TEST(Corpus, GeneratesDeterministically) {
  CorpusSpec spec;
  GeneratedCorpus a = generate_corpus(spec);
  GeneratedCorpus b = generate_corpus(spec);
  ASSERT_EQ(a.files.size(), b.files.size());
  for (std::size_t i = 0; i < a.files.size(); ++i) {
    EXPECT_EQ(a.files[i].path, b.files[i].path);
    EXPECT_EQ(a.files[i].text, b.files[i].text);
  }
  EXPECT_EQ(a.compiled_modules, b.compiled_modules);
}

TEST(Corpus, BuildConfigurationSubset) {
  CorpusSpec spec;
  GeneratedCorpus corpus = generate_corpus(spec);
  // Total modules exceed compiled modules (the KGen-style 2400->820 cut).
  EXPECT_GT(corpus.total_modules, corpus.compiled_modules.size());
  // Compiled = core (18, including the land and ocean components) + aux.
  EXPECT_EQ(corpus.compiled_modules.size(), 18u + spec.compiled_aux_modules);
}

TEST(Corpus, BugInjectionChangesExactlyOneCoefficient) {
  CorpusSpec clean;
  CorpusSpec buggy;
  buggy.bug = BugId::kGoffGratch;
  GeneratedCorpus a = generate_corpus(clean);
  GeneratedCorpus b = generate_corpus(buggy);
  std::size_t differing_files = 0;
  for (std::size_t i = 0; i < a.files.size(); ++i) {
    if (a.files[i].text != b.files[i].text) {
      ++differing_files;
      EXPECT_NE(a.files[i].text.find("8.1328e-3"), std::string::npos);
      EXPECT_NE(b.files[i].text.find("8.1828e-3"), std::string::npos);
    }
  }
  EXPECT_EQ(differing_files, 1u);
}

TEST(Corpus, CamModuleClassification) {
  EXPECT_TRUE(is_cam_module("micro_mg"));
  EXPECT_TRUE(is_cam_module("aux_cam_012"));
  EXPECT_FALSE(is_cam_module("lnd_soil"));
  EXPECT_FALSE(is_cam_module("aux_lnd_006"));
  EXPECT_FALSE(is_cam_module("shr_kind_mod"));
}

TEST(Model, ParsesCleanly) {
  EXPECT_EQ(control().parse_failures(), 0u);
  EXPECT_EQ(control().compiled_modules().size(),
            control().corpus().compiled_modules.size());
}

TEST(Model, RunsAreDeterministicPerSeed) {
  RunConfig config;
  RunResult a = control().run(config);
  RunResult b = control().run(config);
  EXPECT_EQ(a.output_means, b.output_means);
  EXPECT_EQ(a.output_names, b.output_names);
}

TEST(Model, MembersDifferByTinyPerturbations) {
  RunConfig a, b;
  a.member_seed = 1;
  b.member_seed = 2;
  RunResult ra = control().run(a);
  RunResult rb = control().run(b);
  double max_rel = 0.0;
  bool any_diff = false;
  for (std::size_t j = 0; j < ra.output_means.size(); ++j) {
    const double x = ra.output_means[j];
    const double y = rb.output_means[j];
    if (x != y) any_diff = true;
    max_rel = std::max(max_rel, std::abs(x - y) /
                                    std::max({std::abs(x), std::abs(y), 1e-300}));
  }
  EXPECT_TRUE(any_diff);
  // Chaotic growth amplifies 1e-14 perturbations but stays far below O(1)
  // at time step nine.
  EXPECT_LT(max_rel, 1e-6);
  EXPECT_GT(max_rel, 1e-16);
}

TEST(Model, OutputsAreFiniteAndInPhysicalRange) {
  RunConfig config;
  RunResult r = control().run(config);
  EXPECT_GE(r.output_names.size(), 30u);
  for (double v : r.output_means) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_LT(std::abs(v), 10.0);  // normalized units
  }
}

TEST(Model, FmaModeChangesResultsSlightly) {
  RunConfig off, on;
  on.fma_all = true;
  RunResult a = control().run(off);
  RunResult b = control().run(on);
  double max_rel = 0.0;
  for (std::size_t j = 0; j < a.output_means.size(); ++j) {
    max_rel = std::max(
        max_rel, std::abs(a.output_means[j] - b.output_means[j]) /
                     std::max(std::abs(a.output_means[j]), 1e-300));
  }
  EXPECT_GT(max_rel, 1e-15);  // FMA is visible...
  EXPECT_LT(max_rel, 1e-6);   // ...but far from a physical change
}

TEST(Model, FmaDisableListRestoresBaseline) {
  RunConfig off;
  RunConfig on_except_everything;
  on_except_everything.fma_all = true;
  for (const lang::Module* m : control().compiled_modules()) {
    on_except_everything.fma_disabled_modules.push_back(m->name);
  }
  RunResult a = control().run(off);
  RunResult b = control().run(on_except_everything);
  EXPECT_EQ(a.output_means, b.output_means);
}

TEST(Model, PrngSwapIsALargePerturbation) {
  RunConfig kiss, mt;
  mt.prng_kind = "mt19937";
  RunResult a = control().run(kiss);
  RunResult b = control().run(mt);
  double max_rel = 0.0;
  for (std::size_t j = 0; j < a.output_means.size(); ++j) {
    max_rel = std::max(
        max_rel, std::abs(a.output_means[j] - b.output_means[j]) /
                     std::max(std::abs(a.output_means[j]), 1e-300));
  }
  EXPECT_GT(max_rel, 1e-3);
}

TEST(Model, WatchesAreRecorded) {
  RunConfig config;
  config.watches.push_back({"micro_mg", "micro_mg_tend", "dum"});
  RunResult r = control().run(config);
  auto it = r.watch_stats.find({"micro_mg", "micro_mg_tend", "dum"});
  ASSERT_NE(it, r.watch_stats.end());
  // dum is assigned 10 times per column per step: pcols * steps * 10.
  EXPECT_GT(it->second.count, 100u);
}

TEST(Model, CoverageMatchesCorpusDesign) {
  const auto recorder = control().coverage_run(2);
  cov::CoverageFilter filter(recorder);
  const auto stats =
      cov::compute_filter_stats(control().compiled_modules(), filter);
  // The corpus is designed so coverage removes a substantial share of
  // modules and more of the subprograms (paper: ~30% / ~60%).
  EXPECT_GT(stats.module_reduction(), 0.1);
  EXPECT_LT(stats.module_reduction(), 0.5);
  EXPECT_GT(stats.subprogram_reduction(), 0.4);
  EXPECT_LT(stats.subprogram_reduction(), 0.95);
  EXPECT_TRUE(recorder.module_executed("micro_mg"));
  EXPECT_TRUE(recorder.subprogram_executed("micro_mg", "micro_mg_tend"));
}

TEST(Model, EnsembleMatrixShape) {
  std::vector<std::string> names;
  stats::Matrix ens = ensemble_matrix(control(), RunConfig{}, 5, &names);
  EXPECT_EQ(ens.rows(), 5u);
  EXPECT_EQ(ens.cols(), names.size());
  // Columns vary across members.
  bool any_varies = false;
  for (std::size_t j = 0; j < ens.cols(); ++j) {
    if (ens.at(0, j) != ens.at(1, j)) any_varies = true;
  }
  EXPECT_TRUE(any_varies);
}

TEST(Experiments, RegistryIsComplete) {
  // The paper's six experiments are scenario-library rows, one per paper id.
  const std::map<std::string, std::string> expected = {
      {"WSUBBUG", "wsub"},       {"RAND-MT", "prng"},
      {"GOFFGRATCH", "goffgratch"}, {"AVX2", "fma-contraction"},
      {"RANDOMBUG", "random-node"}, {"DYN3BUG", "dyn3"}};
  std::map<std::string, std::string> rows;
  for (const ScenarioSpec& s : scenario_library()) {
    if (s.paper_id.empty()) continue;
    EXPECT_TRUE(rows.emplace(s.paper_id, s.name).second)
        << "duplicate paper id " << s.paper_id;
  }
  EXPECT_EQ(rows, expected);
  EXPECT_TRUE(find_scenario("reassoc3")->paper_id.empty());
  EXPECT_TRUE(find_scenario("prng")->swap_prng);
  EXPECT_TRUE(find_scenario("fma-contraction")->fma_all);
  EXPECT_EQ(find_scenario("goffgratch")->bug, BugId::kGoffGratch);
}

TEST(Experiments, RunConfigModifiers) {
  RunConfig base;
  RunConfig mt = scenario_run_config(*find_scenario("prng"), base);
  EXPECT_EQ(mt.prng_kind, "mt19937");
  EXPECT_FALSE(mt.fma_all);
  RunConfig avx = scenario_run_config(*find_scenario("fma-contraction"), base);
  EXPECT_TRUE(avx.fma_all);
  EXPECT_EQ(avx.prng_kind, base.prng_kind);
  // Source-bug rows plant their cause in the corpus, not the run.
  const ScenarioSpec& wsub = *find_scenario("wsub");
  RunConfig plain = scenario_run_config(wsub, base);
  EXPECT_EQ(plain.prng_kind, base.prng_kind);
  EXPECT_FALSE(plain.fma_all);
  EXPECT_FALSE(plain.reassoc_all);
  EXPECT_EQ(wsub.bug, BugId::kWsub);
}

TEST(Experiments, PrngInfluencedNodesAreInRadiationModules) {
  meta::Metagraph mg = meta::build_metagraph(control().compiled_modules());
  auto nodes = prng_influenced_nodes(mg);
  ASSERT_FALSE(nodes.empty());
  for (graph::NodeId v : nodes) {
    const std::string& mod = mg.info(v).module;
    EXPECT_TRUE(mod == "cloud_lw" || mod == "cloud_sw") << mod;
  }
}

TEST(Experiments, KgenFlagsMicroMgVariables) {
  meta::Metagraph mg = meta::build_metagraph(control().compiled_modules());
  auto flagged = kgen_flagged_variables(control(), mg);
  // The cancellation-bearing MG1 kernel must expose many FMA-sensitive
  // variables (the paper flags 42 of the real MG1).
  EXPECT_GE(flagged.size(), 10u);
  bool has_dum = false;
  for (const auto& key : flagged) {
    EXPECT_EQ(key.module, "micro_mg");
    if (key.name == "dum") has_dum = true;
  }
  EXPECT_TRUE(has_dum);
}


TEST(Model, OceanComponentIsForcedByTheAtmosphere) {
  RunConfig config;
  RunResult r = control().run(config);
  // The POP stand-in writes its own history fields...
  bool has_sst = false;
  for (const auto& name : r.output_names) {
    if (name == "sst") has_sst = true;
  }
  EXPECT_TRUE(has_sst);
  // ...and is classified outside CAM, like the land component.
  EXPECT_FALSE(is_cam_module("ocn_pop"));
  // Two members diverge in the ocean too (forcing carries the spread).
  RunConfig other;
  other.member_seed = 5;
  RunResult r2 = control().run(other);
  for (std::size_t j = 0; j < r.output_names.size(); ++j) {
    if (r.output_names[j] == "sst") {
      EXPECT_NE(r.output_means[j], r2.output_means[j]);
    }
  }
}

}  // namespace
}  // namespace rca::model
