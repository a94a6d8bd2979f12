#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <thread>

#include "engine/pipeline.hpp"
#include "engine/refinement.hpp"
#include "fault/fault.hpp"
#include "lang/parser.hpp"
#include "meta/builder.hpp"
#include "meta/serialize.hpp"
#include "obs/obs.hpp"
#include "service/session_store.hpp"
#include "support/error.hpp"

namespace rca::engine {
namespace {

using graph::NodeId;

// ---------------------------------------------------------------------------
// Unit-level engine tests on a small hand-built metagraph.
// ---------------------------------------------------------------------------

class EngineUnitTest : public ::testing::Test {
 protected:
  meta::Metagraph build(const std::string& src) {
    file_ = std::make_unique<lang::SourceFile>(
        lang::Parser("<t>", src).parse_file());
    std::vector<const lang::Module*> mods;
    for (const auto& m : file_->modules) mods.push_back(&m);
    return meta::build_metagraph(mods);
  }
  std::unique_ptr<lang::SourceFile> file_;
};

TEST_F(EngineUnitTest, SimulatedSamplerUsesReachability) {
  meta::Metagraph mg = build(R"(
module m
contains
  subroutine s()
    real :: bug, mid, sink, elsewhere
    mid = bug * 2.0
    sink = mid + 1.0
    elsewhere = 3.0
  end subroutine
end module
)");
  const NodeId bug = mg.find("m", "s", "bug");
  const NodeId sink = mg.find("m", "s", "sink");
  const NodeId elsewhere = mg.find("m", "s", "elsewhere");
  SimulatedSampler sampler(mg, {bug});
  auto diff = sampler.detect_differences({sink, elsewhere});
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0], sink);
  // The bug node itself also "differs".
  EXPECT_EQ(sampler.detect_differences({bug}).size(), 1u);
}

TEST(SamplerInterface, DetectDifferencesIsTheNodesOfDetectWithMagnitudes) {
  // Overrides only the one pure virtual, and answers in reverse site order
  // with magnitudes that the default detect_differences must drop.
  class EvenSitesSampler : public Sampler {
   public:
    std::vector<Difference> detect_with_magnitudes(
        const std::vector<NodeId>& sites) override {
      ++calls;
      std::vector<Difference> out;
      for (auto it = sites.rbegin(); it != sites.rend(); ++it) {
        if (*it % 2 == 0) out.push_back(Difference{*it, 0.25 * *it});
      }
      return out;
    }
    int calls = 0;
  } sampler;
  EXPECT_EQ(sampler.detect_differences({7, 4, 2, 9, 0, 6}),
            (std::vector<NodeId>{6, 0, 2, 4}));
  EXPECT_EQ(sampler.calls, 1);
  EXPECT_TRUE(sampler.detect_differences({}).empty());
  EXPECT_EQ(sampler.calls, 2);
}

TEST_F(EngineUnitTest, RefinementStopsOnSmallSlices) {
  meta::Metagraph mg = build(R"(
module m
contains
  subroutine s()
    real :: a, b
    b = a * 2.0
  end subroutine
end module
)");
  SimulatedSampler sampler(mg, {});
  RefinementOptions opts;
  opts.small_enough = 10;
  RefinementEngine engine(mg, sampler, opts);
  std::vector<NodeId> slice;
  for (NodeId v = 0; v < mg.node_count(); ++v) slice.push_back(v);
  RefinementResult result = engine.run(slice);
  EXPECT_TRUE(result.iterations.empty());
  EXPECT_EQ(result.final_nodes.size(), slice.size());
}

TEST_F(EngineUnitTest, Step8aRemovesSilentAncestry) {
  // Two parallel chains into separate sinks; bug feeds only chain B. When
  // sampling detects nothing (no bug), 8a removes sampled ancestry.
  meta::Metagraph mg = build(R"(
module m
contains
  subroutine s()
    real :: a1, a2, a3, a4, a5
    real :: b1, b2, b3, b4, b5
    a2 = a1 + 1.0
    a3 = a2 + a1
    a4 = a3 + a2
    a5 = a4 + a3
    b2 = b1 + 1.0
    b3 = b2 + b1
    b4 = b3 + b2
    b5 = b4 + b3
  end subroutine
end module
)");
  SimulatedSampler sampler(mg, {});  // no bug: nothing ever differs
  RefinementOptions opts;
  opts.small_enough = 1;
  opts.min_community_size = 3;
  opts.samples_per_community = 2;
  opts.max_iterations = 3;
  RefinementEngine engine(mg, sampler, opts);
  std::vector<NodeId> slice;
  for (NodeId v = 0; v < mg.node_count(); ++v) slice.push_back(v);
  RefinementResult result = engine.run(slice);
  ASSERT_FALSE(result.iterations.empty());
  EXPECT_TRUE(result.iterations[0].applied_8a);
  EXPECT_LT(result.final_nodes.size(), slice.size());
}

TEST_F(EngineUnitTest, ExcludedSitesAreNeverSampled) {
  meta::Metagraph mg = build(R"(
module m
contains
  subroutine s()
    real :: a, b, c, d, sink
    b = a + 1.0
    c = b + a
    d = c + b
    sink = d + c
  end subroutine
end module
)");
  const NodeId sink = mg.find("m", "s", "sink");
  SimulatedSampler sampler(mg, {});
  RefinementOptions opts;
  opts.small_enough = 1;
  opts.min_community_size = 3;
  opts.samples_per_community = 3;
  opts.max_iterations = 1;
  RefinementEngine engine(mg, sampler, opts);
  std::vector<NodeId> slice;
  for (NodeId v = 0; v < mg.node_count(); ++v) slice.push_back(v);
  RefinementResult result = engine.run(slice, {}, {sink});
  for (const auto& iter : result.iterations) {
    for (const auto& comm : iter.communities) {
      for (NodeId s : comm.sampled) EXPECT_NE(s, sink);
    }
  }
}

// ---------------------------------------------------------------------------
// Integration: the six paper experiments through the full pipeline.
// The pipeline is expensive to build (ensemble of runs), so it is shared.
// ---------------------------------------------------------------------------

Pipeline& shared_pipeline() {
  static Pipeline* pipe = [] {
    PipelineConfig config;
    config.ensemble_members = 24;  // smaller than benches, faster tests
    config.experimental_runs = 8;
    return new Pipeline(std::move(config));
  }();
  return *pipe;
}

TEST(PipelineIntegration, MetagraphAndCoverageAreReasonable) {
  Pipeline& pipe = shared_pipeline();
  EXPECT_GT(pipe.metagraph().node_count(), 300u);
  EXPECT_GT(pipe.metagraph().graph().edge_count(),
            pipe.metagraph().node_count());
  EXPECT_FALSE(pipe.output_names().empty());
  EXPECT_TRUE(
      pipe.control_model().coverage_run(2).module_executed("dyn_core"));
}

TEST(PipelineIntegration, MetagraphMatchesTheSessionStoreBuild) {
  // The engine builds its graph fresh on every Pipeline; the session store
  // (graph/serve/watch/refine) is the one cache of that graph. Both must
  // produce the same bytes from the same corpus, build list and coverage
  // run, so a stored snapshot stands for what the engine would build.
  Pipeline& pipe = shared_pipeline();
  service::SessionConfig config;
  config.build_list = pipe.control_model().corpus().compiled_modules;
  config.coverage = true;
  config.coverage_steps = 2;
  service::SourceList sources;
  for (const model::GeneratedFile& f : pipe.control_model().corpus().files) {
    sources.emplace_back(f.path, f.text);
  }
  service::SessionStore store(service::SessionStoreOptions{});
  const auto session = store.get_or_build(config, std::move(sources));
  EXPECT_EQ(meta::save_metagraph_to_string(session->metagraph()),
            meta::save_metagraph_to_string(pipe.metagraph()));
}

/// The library row of one of the paper's experiments, by its paper id.
const model::ScenarioSpec& paper_row(const std::string& paper_id) {
  for (const model::ScenarioSpec& s : model::scenario_library()) {
    if (s.paper_id == paper_id) return s;
  }
  throw Error("no scenario with paper id " + paper_id);
}

/// One paper experiment: its position in the paper's presentation (§6.1-§6.4,
/// §8.2.1-§8.2.2) and its paper id.
struct PaperCase {
  int ordinal;
  const char* paper_id;
};

/// gtest prints the parameter into the registered test names; printing the
/// fields (not the struct's raw bytes, padding and pointer included) keeps
/// those names identical from build to build.
void PrintTo(const PaperCase& c, std::ostream* os) {
  *os << c.ordinal << ' ' << c.paper_id;
}

class ExperimentSuite : public ::testing::TestWithParam<PaperCase> {};

TEST_P(ExperimentSuite, EctFailsAndRefinementKeepsTheBug) {
  Pipeline& pipe = shared_pipeline();
  const char* id = GetParam().paper_id;
  ExperimentOutcome outcome = pipe.run_scenario(paper_row(id));

  // The experiment must be detected as statistically distinct.
  EXPECT_FALSE(outcome.verdict.pass) << id;

  // Variable selection produced criteria that resolve to internal names.
  EXPECT_FALSE(outcome.criteria_outputs.empty());
  EXPECT_FALSE(outcome.internal_names.empty());

  // The slice is a strict, non-trivial reduction of the graph.
  EXPECT_GT(outcome.slice.nodes.size(), 0u);
  EXPECT_LT(outcome.slice.nodes.size(), pipe.metagraph().node_count());

  // Ground truth: at least one bug node exists and survives refinement —
  // the engine never discards the root cause.
  ASSERT_FALSE(outcome.bug_nodes.empty()) << id;
  EXPECT_TRUE(model::contains_any(outcome.refinement.final_nodes,
                                  outcome.bug_nodes))
      << id;
}

INSTANTIATE_TEST_SUITE_P(
    AllSix, ExperimentSuite,
    ::testing::Values(PaperCase{0, "WSUBBUG"}, PaperCase{1, "RAND-MT"},
                      PaperCase{2, "GOFFGRATCH"}, PaperCase{3, "AVX2"},
                      PaperCase{4, "RANDOMBUG"}, PaperCase{5, "DYN3BUG"}),
    [](const ::testing::TestParamInfo<PaperCase>& info) {
      std::string name = info.param.paper_id;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(PipelineIntegration, WsubBugIsIsolatedAndTiny) {
  // Paper §6.1: the WSUBBUG subgraph has ~14 nodes, disconnected from the
  // CAM core, found by the dominant median-distance variable.
  Pipeline& pipe = shared_pipeline();
  ExperimentOutcome outcome = pipe.run_scenario(paper_row("WSUBBUG"));
  EXPECT_EQ(outcome.criteria_outputs, std::vector<std::string>{"wsub"});
  EXPECT_LE(outcome.slice.nodes.size(), 20u);
  EXPECT_GE(outcome.median_ranked[0].median_distance,
            1000.0 * outcome.median_ranked[1].median_distance);
}

TEST(PipelineIntegration, RandMtDetectsOnSecondIterationAfter8a) {
  // Paper §6.2 / Figures 5-6: first sampling round sees nothing; step 8a
  // dramatically shrinks the subgraph; the second round detects.
  Pipeline& pipe = shared_pipeline();
  ExperimentOutcome outcome = pipe.run_scenario(paper_row("RAND-MT"));
  ASSERT_GE(outcome.refinement.iterations.size(), 2u);
  EXPECT_FALSE(outcome.refinement.iterations[0].detected);
  EXPECT_TRUE(outcome.refinement.iterations[0].applied_8a);
  EXPECT_TRUE(outcome.refinement.iterations[1].detected);
  EXPECT_LT(outcome.refinement.iterations[1].subgraph_nodes,
            outcome.refinement.iterations[0].subgraph_nodes / 4);
}

TEST(PipelineIntegration, Avx2SamplesKgenVariablesOnFirstIteration) {
  // Paper §6.4: the most central nodes of the physics community include the
  // FMA-sensitive MG1 variables KGen flags, sampled on iteration one; `dum`
  // tops the centrality ranking.
  Pipeline& pipe = shared_pipeline();
  ExperimentOutcome outcome = pipe.run_scenario(paper_row("AVX2"));
  const meta::Metagraph& mg = pipe.metagraph();
  std::vector<NodeId> kgen;
  for (const interp::WatchKey& key :
       model::kgen_flagged_variables(pipe.control_model(), mg)) {
    const NodeId v = mg.find(key.module, key.subprogram, key.name);
    if (v != graph::kInvalidNode) kgen.push_back(v);
  }
  ASSERT_FALSE(kgen.empty());
  ASSERT_FALSE(outcome.refinement.iterations.empty());
  bool kgen_sampled = false;
  bool dum_first = false;
  for (const auto& comm : outcome.refinement.iterations[0].communities) {
    kgen_sampled = kgen_sampled || model::contains_any(comm.sampled, kgen);
    if (!comm.sampled.empty() &&
        mg.info(comm.sampled[0]).unique_name == "dum__micro_mg_tend") {
      dum_first = true;
    }
  }
  EXPECT_TRUE(kgen_sampled);
  EXPECT_TRUE(dum_first);
}

TEST(PipelineIntegration, RuntimeSamplingAgreesWithSimulation) {
  // The RuntimeSampler (actual interpreter watchpoints) must also keep the
  // bug in the final subgraph — the paper's proposed-but-unbuilt mode.
  Pipeline& pipe = shared_pipeline();
  ExperimentOutcome outcome =
      pipe.run_scenario(paper_row("GOFFGRATCH"), /*runtime_sampling=*/true);
  EXPECT_FALSE(outcome.verdict.pass);
  bool contained = false;
  for (NodeId b : outcome.bug_nodes) {
    if (std::find(outcome.refinement.final_nodes.begin(),
                  outcome.refinement.final_nodes.end(),
                  b) != outcome.refinement.final_nodes.end()) {
      contained = true;
    }
  }
  EXPECT_TRUE(contained);
}


TEST(PipelineIntegration, LouvainCommunitiesAlsoLocalizeTheBug) {
  // The engine's alternative community detector must preserve the core
  // guarantee: the bug survives refinement.
  PipelineConfig config;
  config.ensemble_members = 20;
  config.experimental_runs = 6;
  config.refinement.community_method = CommunityMethod::kLouvain;
  Pipeline pipe(std::move(config));
  ExperimentOutcome outcome = pipe.run_scenario(paper_row("AVX2"));
  EXPECT_FALSE(outcome.verdict.pass);
  ASSERT_FALSE(outcome.refinement.iterations.empty());
  EXPECT_GE(outcome.refinement.iterations[0].communities.size(), 2u);
  bool contained = false;
  for (NodeId b : outcome.bug_nodes) {
    if (std::find(outcome.refinement.final_nodes.begin(),
                  outcome.refinement.final_nodes.end(),
                  b) != outcome.refinement.final_nodes.end()) {
      contained = true;
    }
  }
  EXPECT_TRUE(contained);
}

TEST(PipelineIntegration, StallBreakingRefinesFurther) {
  // Paper Â§6.3 future work: ranking differences by magnitude breaks the
  // 8b fixed point. With it on, the final subgraph is no larger than the
  // default run's, and the bug is still retained.
  PipelineConfig base_config;
  base_config.ensemble_members = 20;
  base_config.experimental_runs = 6;
  Pipeline base_pipe(base_config);
  ExperimentOutcome plain =
      base_pipe.run_scenario(paper_row("GOFFGRATCH"));

  PipelineConfig ranked_config;
  ranked_config.ensemble_members = 20;
  ranked_config.experimental_runs = 6;
  ranked_config.refinement.rank_differences_on_stall = true;
  Pipeline ranked_pipe(std::move(ranked_config));
  ExperimentOutcome ranked =
      ranked_pipe.run_scenario(paper_row("GOFFGRATCH"));

  EXPECT_LE(ranked.refinement.final_nodes.size(),
            plain.refinement.final_nodes.size());
  bool contained = false;
  for (NodeId b : ranked.bug_nodes) {
    if (std::find(ranked.refinement.final_nodes.begin(),
                  ranked.refinement.final_nodes.end(),
                  b) != ranked.refinement.final_nodes.end()) {
      contained = true;
    }
  }
  EXPECT_TRUE(contained);
}

TEST_F(EngineUnitTest, SimulatedSamplerMagnitudesDecayWithDistance) {
  meta::Metagraph mg = build(R"(
module m
contains
  subroutine s()
    real :: bug, near, far
    near = bug * 2.0
    far = near + 1.0
  end subroutine
end module
)");
  const NodeId bug = mg.find("m", "s", "bug");
  const NodeId near_node = mg.find("m", "s", "near");
  const NodeId far_node = mg.find("m", "s", "far");
  SimulatedSampler sampler(mg, {bug});
  auto diffs = sampler.detect_with_magnitudes({near_node, far_node});
  ASSERT_EQ(diffs.size(), 2u);
  double near_mag = 0, far_mag = 0;
  for (const auto& d : diffs) {
    if (d.node == near_node) near_mag = d.magnitude;
    if (d.node == far_node) far_mag = d.magnitude;
  }
  EXPECT_GT(near_mag, far_mag);
}

TEST_F(EngineUnitTest, SimulatedSamplerMagnitudeIsHopDistanceSurrogate) {
  // The simulated magnitude is exactly 1/(1+d) for hop distance d from the
  // planted bug, and sites the bug cannot reach never appear at all — the
  // contract campaign stall-breaking relies on.
  meta::Metagraph mg = build(R"(
module m
contains
  subroutine s()
    real :: bug, near, far, elsewhere
    near = bug * 2.0
    far = near + 1.0
    elsewhere = 3.0
  end subroutine
end module
)");
  const NodeId bug = mg.find("m", "s", "bug");
  const NodeId near_node = mg.find("m", "s", "near");
  const NodeId far_node = mg.find("m", "s", "far");
  const NodeId elsewhere = mg.find("m", "s", "elsewhere");
  SimulatedSampler sampler(mg, {bug});
  const auto diffs =
      sampler.detect_with_magnitudes({bug, near_node, far_node, elsewhere});
  ASSERT_EQ(diffs.size(), 3u);  // elsewhere is unreached -> excluded
  for (const auto& d : diffs) {
    EXPECT_NE(d.node, elsewhere);
    if (d.node == bug) {
      EXPECT_DOUBLE_EQ(d.magnitude, 1.0);
    } else if (d.node == near_node) {
      EXPECT_DOUBLE_EQ(d.magnitude, 1.0 / 2.0);
    } else if (d.node == far_node) {
      EXPECT_DOUBLE_EQ(d.magnitude, 1.0 / 3.0);
    }
  }
}

TEST_F(EngineUnitTest, StallBrokenWhenEightBReproducesTheSubgraph) {
  // Diamond ancestry: every node lies on a path to a differing site, so 8b
  // keeps the whole subgraph (the paper's issue 1 fixed point). With
  // rank_differences_on_stall the engine re-refines on the single
  // most-affected site (the bug itself, magnitude 1.0) and must report
  // stall_broken instead of stalling.
  const char* diamond = R"(
module m
contains
  subroutine s()
    real :: bug, a, b, sink
    a = bug * 2.0
    b = bug + 1.0
    sink = a + b
  end subroutine
end module
)";
  meta::Metagraph mg = build(diamond);
  const NodeId bug = mg.find("m", "s", "bug");
  std::vector<NodeId> slice;
  for (NodeId v = 0; v < mg.node_count(); ++v) slice.push_back(v);

  RefinementOptions opts;
  opts.small_enough = 1;
  opts.min_community_size = 2;
  opts.samples_per_community = 4;  // every node instrumented -> all differ
  opts.max_iterations = 4;

  {
    // Without the extension the fixed point is terminal: stalled, no
    // progress, subgraph returned unchanged.
    SimulatedSampler sampler(mg, {bug});
    RefinementEngine engine(mg, sampler, opts);
    RefinementResult plain = engine.run(slice, {bug});
    EXPECT_TRUE(plain.stalled);
    EXPECT_EQ(plain.final_nodes.size(), slice.size());
    for (const auto& iter : plain.iterations) {
      EXPECT_FALSE(iter.stall_broken);
    }
  }
  {
    SimulatedSampler sampler(mg, {bug});
    RefinementOptions ranked = opts;
    ranked.rank_differences_on_stall = true;
    RefinementEngine engine(mg, sampler, ranked);
    RefinementResult result = engine.run(slice, {bug});
    EXPECT_FALSE(result.stalled);
    bool broke = false;
    for (const auto& iter : result.iterations) broke |= iter.stall_broken;
    EXPECT_TRUE(broke);
    // Re-refining on the strongest difference collapses onto the bug's own
    // ancestry.
    ASSERT_FALSE(result.final_nodes.empty());
    EXPECT_LT(result.final_nodes.size(), slice.size());
    EXPECT_NE(std::find(result.final_nodes.begin(), result.final_nodes.end(),
                        bug),
              result.final_nodes.end());
  }
}


TEST(PipelineIntegration, EmitsOneSpanPerPipelineStage) {
  // The observability layer must record exactly one span per Figure-1 stage
  // per experiment, nested under the experiment root, with sane durations
  // and the graph-size attributes CI's perf tripwire reads.
  Pipeline& pipe = shared_pipeline();
  obs::global().set_enabled(true);
  obs::global().reset();
  pipe.run_scenario(paper_row("GOFFGRATCH"));
  obs::global().set_enabled(false);

  auto roots = obs::global().spans_named("experiment");
  ASSERT_EQ(roots.size(), 1u);
  for (const char* stage : {"ect", "selection", "slice", "refinement"}) {
    auto spans = obs::global().spans_named(stage);
    ASSERT_EQ(spans.size(), 1u) << stage;
    EXPECT_EQ(spans[0].parent, roots[0].id) << stage;
    EXPECT_GE(spans[0].duration_us, 0.0) << stage;
    // A stage of this scaled model finishes in well under a minute.
    EXPECT_LT(spans[0].duration_us, 60e6) << stage;
    // Child stages are contained in the experiment window.
    EXPECT_GE(spans[0].start_us, roots[0].start_us) << stage;
    EXPECT_LE(spans[0].start_us + spans[0].duration_us,
              roots[0].start_us + roots[0].duration_us + 1.0)
        << stage;
  }

  // The experimental runs carry their own spans: the 3-run verdict set
  // under "ect", the selection set under "selection", each recording its
  // run count and pool width.
  auto runs = obs::global().spans_named("model.experiment");
  ASSERT_EQ(runs.size(), 2u);
  const char* owners[] = {"ect", "selection"};
  for (std::size_t k = 0; k < runs.size(); ++k) {
    EXPECT_EQ(runs[k].parent, obs::global().spans_named(owners[k])[0].id);
    std::map<std::string, long long> attrs;
    for (const auto& [key, value] : runs[k].attrs) attrs[key] = value.i;
    EXPECT_EQ(attrs.at("runs"), k == 0 ? 3 : 8) << owners[k];
    EXPECT_GE(attrs.at("workers"), 1) << owners[k];
  }

  // Graph-size counters the perf tripwire diffs.
  EXPECT_GT(obs::global().gauge("pipeline.slice_nodes"), 0.0);
  EXPECT_GT(obs::global().counter("model.runs"), 0u);
  EXPECT_GT(obs::global().counter("graph.betweenness.sweeps"), 0u);
  EXPECT_GT(obs::global().counter("refinement.iterations"), 0u);

  // The whole registry serializes to a document the smoke test greps.
  const std::string json = obs::global().to_json();
  EXPECT_NE(json.find("\"schema\":\"rca.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"slice\""), std::string::npos);
}

TEST(PipelineIntegration, ParallelSamplingMatchesSerial) {
  // Per-community sampling on a thread pool (Algorithm 5.4's parallelism)
  // must produce the same refinement as the serial path.
  auto run_with_threads = [](std::size_t threads) {
    PipelineConfig config;
    config.ensemble_members = 20;
    config.experimental_runs = 6;
    config.threads = threads;
    Pipeline pipe(std::move(config));
    return pipe.run_scenario(paper_row("GOFFGRATCH"));
  };
  ExperimentOutcome serial = run_with_threads(0);
  ExperimentOutcome parallel = run_with_threads(3);
  EXPECT_EQ(serial.refinement.final_nodes, parallel.refinement.final_nodes);
  ASSERT_EQ(serial.refinement.iterations.size(),
            parallel.refinement.iterations.size());
  for (std::size_t i = 0; i < serial.refinement.iterations.size(); ++i) {
    EXPECT_EQ(serial.refinement.iterations[i].detected,
              parallel.refinement.iterations[i].detected);
    ASSERT_EQ(serial.refinement.iterations[i].communities.size(),
              parallel.refinement.iterations[i].communities.size());
    for (std::size_t c = 0;
         c < serial.refinement.iterations[i].communities.size(); ++c) {
      EXPECT_EQ(serial.refinement.iterations[i].communities[c].sampled,
                parallel.refinement.iterations[i].communities[c].sampled);
    }
  }
}


// ---------------------------------------------------------------------------
// RuntimeSampler: one recorded run per configuration, answers by lookup.
// ---------------------------------------------------------------------------

/// The runtime sampler's control and experimental run configurations for a
/// scenario, as Pipeline::run_scenario builds them.
struct SamplerConfigs {
  model::RunConfig control;
  model::RunConfig experiment;
};

SamplerConfigs sampler_configs(const Pipeline& pipe,
                               const model::ScenarioSpec& s) {
  SamplerConfigs c;
  c.control = pipe.config().base_run;
  c.control.member_seed = 31;
  c.experiment = model::scenario_run_config(s, pipe.config().base_run);
  c.experiment.member_seed = 31;
  return c;
}

/// Reference: per-call sampling, one control run and one experimental run
/// that watch exactly `sites` (the sampler's behaviour before RunTrace).
std::vector<Difference> per_call_reference(const meta::Metagraph& mg,
                                           const model::CesmModel& control,
                                           const model::CesmModel& experiment,
                                           const SamplerConfigs& configs,
                                           const std::vector<NodeId>& sites) {
  model::RunConfig control_config = configs.control;
  model::RunConfig experiment_config = configs.experiment;
  control_config.watches.clear();
  experiment_config.watches.clear();
  for (NodeId v : sites) {
    control_config.watches.push_back(mg.watch_key(v));
    experiment_config.watches.push_back(mg.watch_key(v));
  }
  const model::RunResult a = control.run(control_config);
  const model::RunResult b = experiment.run(experiment_config);
  std::vector<Difference> differing;
  for (NodeId v : sites) {
    const interp::WatchKey key = mg.watch_key(v);
    const interp::WatchStats& sa = a.watch_stats.at(key);
    const interp::WatchStats& sb = b.watch_stats.at(key);
    if (sa.count == 0 && sb.count == 0) continue;
    const double ra = sa.rms();
    const double rb = sb.rms();
    const double scale = std::max({std::abs(ra), std::abs(rb), 1e-300});
    const double rel = std::abs(ra - rb) / scale;
    if (rel > 1e-12 || sa.count != sb.count) {
      differing.push_back(Difference{v, rel});
    }
  }
  return differing;
}

/// Same nodes in the same order, bit-equal magnitudes.
bool same_answer(const std::vector<Difference>& a,
                 const std::vector<Difference>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].node != b[i].node ||
        std::bit_cast<std::uint64_t>(a[i].magnitude) !=
            std::bit_cast<std::uint64_t>(b[i].magnitude)) {
      return false;
    }
  }
  return true;
}

/// Passes every call through to `inner` and checks its answer against
/// `reference` on the same sites.
class CheckingSampler : public Sampler {
 public:
  using Reference =
      std::function<std::vector<Difference>(const std::vector<NodeId>&)>;
  CheckingSampler(Sampler& inner, Reference reference)
      : inner_(inner), reference_(std::move(reference)) {}

  std::vector<Difference> detect_with_magnitudes(
      const std::vector<NodeId>& sites) override {
    std::vector<Difference> got = inner_.detect_with_magnitudes(sites);
    ++calls_;
    if (!same_answer(got, reference_(sites))) ++mismatches_;
    return got;
  }
  std::size_t calls() const { return calls_; }
  std::size_t mismatches() const { return mismatches_; }

 private:
  Sampler& inner_;
  Reference reference_;
  std::size_t calls_ = 0;
  std::size_t mismatches_ = 0;
};

std::size_t count_recordings(const std::string& role) {
  std::size_t n = 0;
  for (const obs::SpanRecord& span :
       obs::global().spans_named("sampler.record")) {
    for (const auto& [key, value] : span.attrs) {
      if (key == "role" && value.s == role) ++n;
    }
  }
  return n;
}

TEST(RuntimeSamplerExactness, LookupMatchesPerCallRunsOnEveryLibraryScenario) {
  Pipeline& pipe = shared_pipeline();
  const meta::Metagraph& mg = pipe.metagraph();
  std::size_t calls = 0;
  std::size_t sampling_scenarios = 0;
  for (const model::ScenarioSpec& s : model::scenario_library()) {
    const ExperimentOutcome outcome = pipe.run_scenario(s, true);
    // Replay the refinement on a fresh sampler whose every answer is checked
    // against per-call runs on the same sites.
    const model::CesmModel& exp_model = pipe.bug_model(s.bug);
    const SamplerConfigs configs = sampler_configs(pipe, s);
    RuntimeSampler lookup(mg, pipe.control_model(), exp_model,
                          configs.control, configs.experiment);
    CheckingSampler checked(lookup, [&](const std::vector<NodeId>& sites) {
      return per_call_reference(mg, pipe.control_model(), exp_model, configs,
                                sites);
    });
    const RefinementResult replay =
        RefinementEngine(mg, checked, pipe.config().refinement)
            .run(outcome.slice.nodes, outcome.bug_nodes,
                 outcome.slice.targets);
    EXPECT_EQ(checked.mismatches(), 0u) << s.name;

    // The pipeline's run, on its shared control trace, answered alike.
    EXPECT_EQ(replay.final_nodes, outcome.refinement.final_nodes) << s.name;
    ASSERT_EQ(replay.iterations.size(), outcome.refinement.iterations.size())
        << s.name;
    for (std::size_t i = 0; i < replay.iterations.size(); ++i) {
      const auto& want = replay.iterations[i].communities;
      const auto& got = outcome.refinement.iterations[i].communities;
      ASSERT_EQ(want.size(), got.size()) << s.name;
      for (std::size_t c = 0; c < want.size(); ++c) {
        EXPECT_EQ(want[c].differing, got[c].differing) << s.name;
        ASSERT_EQ(want[c].difference_magnitudes.size(),
                  got[c].difference_magnitudes.size());
        for (std::size_t d = 0; d < want[c].differing.size(); ++d) {
          EXPECT_EQ(
              std::bit_cast<std::uint64_t>(want[c].difference_magnitudes[d]),
              std::bit_cast<std::uint64_t>(got[c].difference_magnitudes[d]))
              << s.name;
        }
      }
    }
    calls += checked.calls();
    if (checked.calls() > 0) ++sampling_scenarios;
  }
  EXPECT_GE(sampling_scenarios, 6u);  // all but wsub sample
  EXPECT_GE(calls, 20u);
}

TEST(RuntimeSamplerExactness, NoLocalNodeHasAModuleLevelTwin) {
  EXPECT_TRUE(nodes_with_module_twin(shared_pipeline().metagraph()).empty());
  // The unfiltered cesm-scale metagraph holds every node of the
  // coverage-filtered one a cesm-scale Pipeline samples.
  const model::CesmModel cesm(model::cesm_scale_spec());
  const meta::Metagraph mg = meta::build_metagraph(cesm.compiled_modules());
  EXPECT_GT(mg.node_count(), 7737u);
  EXPECT_TRUE(nodes_with_module_twin(mg).empty());
}

TEST_F(EngineUnitTest, ShadowingLocalIsReportedAsAModuleLevelTwin) {
  meta::Metagraph mg = build(R"(
module m
  real :: x
  real :: y
contains
  subroutine shadow()
    real :: x
    x = 1.0
    y = x * 2.0
  end subroutine
  subroutine global()
    x = 3.0
  end subroutine
end module
)");
  const std::vector<NodeId> twins = nodes_with_module_twin(mg);
  ASSERT_EQ(twins.size(), 1u);
  EXPECT_EQ(mg.info(twins[0]).subprogram, "shadow");
  EXPECT_EQ(mg.info(twins[0]).canonical_name, "x");
}

TEST(RuntimeSamplerConcurrency, FirstCallsRecordEachTraceOnce) {
  Pipeline& pipe = shared_pipeline();
  const model::ScenarioSpec& s = *model::find_scenario("goffgratch");
  const model::CesmModel& exp_model = pipe.bug_model(s.bug);
  const SamplerConfigs configs = sampler_configs(pipe, s);
  RuntimeSampler sampler(pipe.metagraph(), pipe.control_model(), exp_model,
                         configs.control, configs.experiment);
  std::vector<NodeId> sites = pipe.scenario_planted_nodes(s);
  for (NodeId v = 0; v < 20; ++v) sites.push_back(v);

  obs::global().set_enabled(true);
  obs::global().reset();
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<Difference>> answers(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      answers[t] = sampler.detect_with_magnitudes(sites);
    });
  }
  for (std::thread& t : threads) t.join();
  const std::size_t control = count_recordings("control");
  const std::size_t experiment = count_recordings("experiment");
  const std::uint64_t runs = obs::global().counter("model.runs");
  obs::global().set_enabled(false);

  EXPECT_EQ(control, 1u);
  EXPECT_EQ(experiment, 1u);
  EXPECT_EQ(runs, 2u);
  ASSERT_FALSE(answers[0].empty());  // the planted sites differ
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_TRUE(same_answer(answers[t], answers[0])) << t;
  }
  EXPECT_TRUE(same_answer(
      answers[0], per_call_reference(pipe.metagraph(), pipe.control_model(),
                                     exp_model, configs, sites)));
}

// A recording that throws leaves no trace behind: every other caller,
// waiting or later, records again. Four first calls race with an armed
// engine.sample fault that fires once: exactly one call fails (on the
// control recording), the other three record each trace once and agree
// with the unfaulted answer.
TEST(RuntimeSamplerConcurrency, ARecordingThatThrowsIsRetriedByTheNextCall) {
  Pipeline& pipe = shared_pipeline();
  const model::ScenarioSpec& s = *model::find_scenario("goffgratch");
  const model::CesmModel& exp_model = pipe.bug_model(s.bug);
  const SamplerConfigs configs = sampler_configs(pipe, s);
  RuntimeSampler sampler(pipe.metagraph(), pipe.control_model(), exp_model,
                         configs.control, configs.experiment);
  std::vector<NodeId> sites = pipe.scenario_planted_nodes(s);
  for (NodeId v = 0; v < 20; ++v) sites.push_back(v);

  obs::global().set_enabled(true);
  obs::global().reset();
  fault::FaultRegistry::global().arm("engine.sample:1.0:throw:0:1");
  constexpr std::size_t kThreads = 4;
  std::vector<std::optional<std::vector<Difference>>> answers(kThreads);
  std::atomic<int> failures{0};
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      try {
        answers[t] = sampler.detect_with_magnitudes(sites);
      } catch (const fault::FaultInjected&) {
        ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::uint64_t fires =
      fault::FaultRegistry::global().fires("engine.sample");
  fault::FaultRegistry::global().disarm();
  const std::uint64_t runs = obs::global().counter("model.runs");
  obs::global().set_enabled(false);

  EXPECT_EQ(fires, 1u);
  EXPECT_EQ(failures.load(), 1);
  EXPECT_EQ(runs, 2u);  // the failed recording ran no model
  const std::vector<Difference> reference = per_call_reference(
      pipe.metagraph(), pipe.control_model(), exp_model, configs, sites);
  ASSERT_FALSE(reference.empty());
  std::size_t answered = 0;
  for (const auto& answer : answers) {
    if (!answer) continue;
    ++answered;
    EXPECT_TRUE(same_answer(*answer, reference));
  }
  EXPECT_EQ(answered, kThreads - 1);
  // A later call reuses both traces: it runs no model.
  obs::global().set_enabled(true);
  EXPECT_TRUE(same_answer(sampler.detect_with_magnitudes(sites), reference));
  EXPECT_EQ(obs::global().counter("model.runs"), runs);
  obs::global().set_enabled(false);
}

// Pipeline construction charges its time to named stages: the direct
// children of pipeline.init (model.corpus, interp.coverage, meta.build,
// model.ensemble, ect.fit) cover at least 95% of it.
TEST(PipelineIntegration, InitChildSpansAddUpToTheirParent) {
  obs::global().set_enabled(true);
  obs::global().reset();
  {
    PipelineConfig config;
    config.ensemble_members = 20;
    config.experimental_runs = 6;
    Pipeline pipe(std::move(config));
  }
  const std::vector<obs::SpanRecord> spans = obs::global().spans();
  obs::global().set_enabled(false);
  const auto init =
      std::find_if(spans.begin(), spans.end(), [](const obs::SpanRecord& s) {
        return s.name == "pipeline.init";
      });
  ASSERT_NE(init, spans.end());
  double children_us = 0.0;
  std::set<std::string> names;
  for (const obs::SpanRecord& span : spans) {
    if (span.parent != init->id) continue;
    children_us += span.duration_us;
    names.insert(span.name);
  }
  EXPECT_EQ(names, (std::set<std::string>{"model.corpus", "interp.coverage",
                                          "meta.build", "model.ensemble",
                                          "ect.fit"}));
  EXPECT_GE(children_us, 0.95 * init->duration_us)
      << children_us << " of " << init->duration_us << " us";
}

TEST(PipelineIntegration, RuntimeScenariosShareOneControlRecording) {
  PipelineConfig config;
  config.ensemble_members = 20;
  config.experimental_runs = 6;
  config.threads = 2;
  Pipeline pipe(std::move(config));
  obs::global().set_enabled(true);
  obs::global().reset();

  const ExperimentOutcome outcome =
      pipe.run_scenario(paper_row("GOFFGRATCH"), true);
  EXPECT_EQ(count_recordings("control"), 1u);
  EXPECT_EQ(count_recordings("experiment"), 1u);

  // One refinement.sample span per community sampled, carrying its site
  // and differing counts; the recordings happen inside sampler calls.
  std::size_t communities = 0;
  std::size_t sites = 0;
  std::size_t differing = 0;
  for (const IterationReport& it : outcome.refinement.iterations) {
    for (const CommunityReport& cr : it.communities) {
      ++communities;
      sites += cr.sampled.size();
      differing += cr.differing.size();
    }
  }
  const auto samples = obs::global().spans_named("refinement.sample");
  ASSERT_EQ(samples.size(), communities);
  std::size_t span_sites = 0;
  std::size_t span_differing = 0;
  for (const obs::SpanRecord& span : samples) {
    std::map<std::string, long long> attrs;
    for (const auto& [key, value] : span.attrs) attrs[key] = value.i;
    span_sites += static_cast<std::size_t>(attrs.at("sites"));
    span_differing += static_cast<std::size_t>(attrs.at("differing"));
  }
  EXPECT_EQ(span_sites, sites);
  EXPECT_EQ(span_differing, differing);
  for (const obs::SpanRecord& record :
       obs::global().spans_named("sampler.record")) {
    EXPECT_TRUE(std::any_of(samples.begin(), samples.end(),
                            [&](const obs::SpanRecord& sample) {
                              return sample.id == record.parent;
                            }));
  }

  // A second scenario records only its experimental run; wsub never
  // samples, so it records nothing.
  pipe.run_scenario(paper_row("RAND-MT"), true);
  pipe.run_scenario(paper_row("WSUBBUG"), true);
  obs::global().set_enabled(false);
  EXPECT_EQ(count_recordings("control"), 1u);
  EXPECT_EQ(count_recordings("experiment"), 2u);
}

}  // namespace
}  // namespace rca::engine
