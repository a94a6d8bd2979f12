// Property-based tests: seeded sweeps over randomized structures asserting
// invariants of the graph algorithms, the frontend, the slicer and the ECT.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "ect/ect.hpp"
#include "graph/betweenness.hpp"
#include "graph/bfs.hpp"
#include "graph/centrality.hpp"
#include "graph/louvain.hpp"
#include "graph/scc.hpp"
#include "graph/ugraph.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "interp/interpreter.hpp"
#include "meta/builder.hpp"
#include "meta/serialize.hpp"
#include "model/corpus.hpp"
#include "model/model.hpp"
#include "obs/obs.hpp"
#include "slice/slicer.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace rca {
namespace {

using graph::Digraph;
using graph::NodeId;

Digraph random_digraph(std::uint64_t seed, std::size_t n, std::size_t m) {
  SplitMix64 rng(seed);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (std::size_t e = 0; e < m; ++e) {
    edges.emplace_back(static_cast<NodeId>(rng.next() % n),
                       static_cast<NodeId>(rng.next() % n));
  }
  return Digraph(n, std::move(edges));
}

// ---------------------------------------------------------------------------
// Graph invariants, swept over seeds.
// ---------------------------------------------------------------------------

class GraphInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphInvariants, InducedSubgraphIsExact) {
  Digraph g = random_digraph(GetParam(), 60, 180);
  SplitMix64 rng(GetParam() * 31 + 7);
  std::vector<NodeId> keep;
  std::vector<bool> in_set(60, false);
  for (NodeId v = 0; v < 60; ++v) {
    if (rng.uniform() < 0.5) {
      keep.push_back(v);
      in_set[v] = true;
    }
  }
  if (keep.empty()) keep.push_back(0), in_set[0] = true;
  std::vector<NodeId> map;
  Digraph sub = induced_subgraph(g, keep, &map);
  // Every kept-pair edge of g appears in sub, and nothing else does.
  std::size_t expected_edges = 0;
  for (const auto& [u, v] : g.edges()) {
    if (in_set[u] && in_set[v]) {
      ++expected_edges;
      EXPECT_TRUE(sub.has_edge(map[u], map[v]));
    }
  }
  EXPECT_EQ(sub.edge_count(), expected_edges);
}

TEST_P(GraphInvariants, QuotientHasNoSelfLoopsAndCoversCrossEdges) {
  Digraph g = random_digraph(GetParam(), 50, 150);
  std::vector<NodeId> classes(50);
  for (NodeId v = 0; v < 50; ++v) classes[v] = v % 7;
  Digraph q = quotient_graph(g, classes, 7);
  for (NodeId c = 0; c < 7; ++c) EXPECT_FALSE(q.has_edge(c, c));
  for (const auto& [u, v] : g.edges()) {
    if (classes[u] != classes[v]) {
      EXPECT_TRUE(q.has_edge(classes[u], classes[v]));
    }
  }
}

TEST_P(GraphInvariants, AncestorDescendantDuality) {
  Digraph g = random_digraph(GetParam(), 40, 100);
  SplitMix64 rng(GetParam() + 99);
  const NodeId a = static_cast<NodeId>(rng.next() % 40);
  const NodeId b = static_cast<NodeId>(rng.next() % 40);
  const auto anc_b = graph::ancestors_of(g, {b});
  const auto desc_a = graph::descendants_of(g, {a});
  const bool a_in_anc =
      std::find(anc_b.begin(), anc_b.end(), a) != anc_b.end();
  const bool b_in_desc =
      std::find(desc_a.begin(), desc_a.end(), b) != desc_a.end();
  EXPECT_EQ(a_in_anc, b_in_desc);
}

TEST_P(GraphInvariants, WccIsAValidPartition) {
  Digraph g = random_digraph(GetParam(), 70, 80);
  std::size_t count = 0;
  auto comp = graph::weakly_connected_components(g, &count);
  EXPECT_GT(count, 0u);
  for (NodeId v = 0; v < 70; ++v) EXPECT_LT(comp[v], count);
  // Edges never cross components.
  for (const auto& [u, v] : g.edges()) EXPECT_EQ(comp[u], comp[v]);
}

TEST_P(GraphInvariants, EigenvectorCentralityIsNormalizedAndNonNegative) {
  Digraph g = random_digraph(GetParam(), 50, 150);
  auto c = eigenvector_centrality(g, graph::Direction::kIn);
  double norm = 0.0;
  for (double x : c) {
    EXPECT_GE(x, 0.0);
    norm += x * x;
  }
  EXPECT_NEAR(std::sqrt(norm), 1.0, 1e-6);
}

TEST_P(GraphInvariants, EdgeBetweennessNonNegativeAndBounded) {
  Digraph g = random_digraph(GetParam(), 30, 70);
  graph::UGraph ug(g);
  auto bc = graph::edge_betweenness(ug);
  const double n = static_cast<double>(ug.node_count());
  for (double b : bc) {
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, n * (n - 1) / 2.0 + 1e-9);  // all pairs bound
  }
}

TEST_P(GraphInvariants, LouvainNeverWorseThanSingletons) {
  Digraph g = random_digraph(GetParam(), 60, 150);
  std::vector<NodeId> singletons(60);
  for (NodeId v = 0; v < 60; ++v) singletons[v] = v;
  auto result = louvain(g);
  EXPECT_GE(result.modularity, modularity(g, singletons) - 1e-9);
  // Assignment is a valid dense partition.
  for (NodeId c : result.assignment) {
    EXPECT_LT(c, result.assignment.size());
  }
}

TEST_P(GraphInvariants, CondensationIsAcyclic) {
  Digraph g = random_digraph(GetParam(), 40, 120);
  auto scc = strongly_connected_components(g);
  Digraph cond = condensation(g, scc);
  auto check = strongly_connected_components(cond);
  EXPECT_EQ(check.count, cond.node_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphInvariants,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// ---------------------------------------------------------------------------
// Frontend: print/parse fixed point over the generated corpus.
// ---------------------------------------------------------------------------

class CorpusRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CorpusRoundTrip, ParsePrintParseIsAFixedPoint) {
  static const model::GeneratedCorpus corpus =
      model::generate_corpus(model::CorpusSpec{});
  const std::size_t index = GetParam() % corpus.files.size();
  const auto& file = corpus.files[index];

  lang::Parser p1(file.path, file.text);
  lang::SourceFile ast1 = p1.parse_file();
  const std::string printed1 = lang::print_source_file(ast1);
  lang::Parser p2(file.path, printed1);
  lang::SourceFile ast2 = p2.parse_file();
  EXPECT_EQ(lang::print_source_file(ast2), printed1) << file.path;
}

INSTANTIATE_TEST_SUITE_P(Files, CorpusRoundTrip,
                         ::testing::Values(0u, 3u, 6u, 13u, 29u, 57u, 101u,
                                           143u, 181u, 196u));

// ---------------------------------------------------------------------------
// Slicer soundness: ancestors always make it into canonical-name slices.
// ---------------------------------------------------------------------------

class SlicerSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SlicerSoundness, AncestorsAreNeverDropped) {
  static std::unique_ptr<model::CesmModel> model =
      std::make_unique<model::CesmModel>(model::CorpusSpec{});
  static meta::Metagraph mg = meta::build_metagraph(model->compiled_modules());

  SplitMix64 rng(GetParam() * 7919 + 13);
  // Pick a random node with descendants; slice on a random descendant's
  // canonical name; the node must be in the slice.
  for (int trial = 0; trial < 5; ++trial) {
    const NodeId v = static_cast<NodeId>(rng.next() % mg.node_count());
    auto desc = graph::descendants_of(mg.graph(), {v});
    if (desc.size() < 2) continue;
    const NodeId d = desc[1 + rng.next() % (desc.size() - 1)];
    const std::string& canonical = mg.info(d).canonical_name;
    slice::SliceResult result = slice::backward_slice(mg, {canonical});
    EXPECT_NE(std::find(result.nodes.begin(), result.nodes.end(), v),
              result.nodes.end())
        << "node " << mg.info(v).unique_name << " missing from slice on "
        << canonical;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlicerSoundness,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));


// ---------------------------------------------------------------------------
// Static-vs-dynamic soundness: every variable the interpreter actually
// assigns is known to the metagraph under the same canonical name, so no
// runtime store can escape the slicer's canonical-name search.
// ---------------------------------------------------------------------------

TEST(StaticDynamicConsistency, EveryRuntimeAssignmentHasAGraphNode) {
  model::CesmModel model(model::CorpusSpec{});
  meta::Metagraph mg = meta::build_metagraph(model.compiled_modules());

  // Re-run the driver with assignment recording on.
  interp::Interpreter interp(model.compiled_modules());
  interp.set_record_assignments(true);
  interp.call("cam_driver", "cam_init");
  for (int step = 0; step < 3; ++step) interp.call("cam_driver", "cam_step");

  ASSERT_GT(interp.assigned_keys().size(), 100u);
  std::size_t exact = 0;
  for (const interp::WatchKey& key : interp.assigned_keys()) {
    // The canonical name must be known to the static graph...
    EXPECT_FALSE(mg.by_canonical(key.name).empty())
        << key.module << "::" << key.subprogram << "::" << key.name;
    // ...and most keys resolve to their exact scoped node (derived-type
    // component stores are attributed to the owning module statically but
    // to the executing subprogram dynamically, so exact-match is not 100%).
    if (mg.find(key.module, key.subprogram, key.name) !=
        graph::kInvalidNode) {
      ++exact;
    }
  }
  EXPECT_GT(exact * 10, interp.assigned_keys().size() * 8);  // >80% exact
}

// ---------------------------------------------------------------------------
// Parallel front-end determinism: the concurrent parse + fragment-replay
// build must be BYTE-identical to the serial build at any thread count, and
// the per-target parallel slice must equal the serial multi-source slice
// node-for-node.
// ---------------------------------------------------------------------------

class ParallelDeterminism : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  static model::CorpusSpec small_spec(std::uint64_t seed) {
    model::CorpusSpec spec;
    spec.seed = seed;
    spec.total_aux_modules = 40;
    spec.compiled_aux_modules = 20;
    spec.executed_aux_modules = 14;
    return spec;
  }
};

TEST_P(ParallelDeterminism, ParallelBuildIsByteIdenticalToSerial) {
  const model::CorpusSpec spec = small_spec(GetParam());
  model::CesmModel serial_model(spec);
  ASSERT_EQ(serial_model.parse_failures(), 0u);
  const meta::Metagraph serial_mg =
      meta::build_metagraph(serial_model.compiled_modules());
  const std::string serial_text = meta::save_metagraph_to_string(serial_mg);

  for (std::size_t jobs : {1u, 2u, 8u}) {
    ThreadPool pool(jobs);
    // Parallel parse must yield the same module list...
    model::CesmModel par_model(spec, &pool);
    ASSERT_EQ(par_model.parse_failures(), 0u);
    ASSERT_EQ(par_model.compiled_modules().size(),
              serial_model.compiled_modules().size());
    // ...and the parallel fragment build the same serialized bytes.
    meta::BuilderOptions opts;
    opts.pool = &pool;
    const meta::Metagraph par_mg =
        meta::build_metagraph(par_model.compiled_modules(), opts);
    EXPECT_EQ(meta::save_metagraph_to_string(par_mg), serial_text)
        << "divergence at " << jobs << " threads, seed " << GetParam();
    EXPECT_EQ(par_mg.assignments_processed, serial_mg.assignments_processed);
    EXPECT_EQ(par_mg.assignments_failed, serial_mg.assignments_failed);
    EXPECT_EQ(par_mg.calls_processed, serial_mg.calls_processed);
  }
}

TEST_P(ParallelDeterminism, ParallelSliceEqualsSerialNodeForNode) {
  static std::unique_ptr<model::CesmModel> model =
      std::make_unique<model::CesmModel>(model::CorpusSpec{});
  static meta::Metagraph mg = meta::build_metagraph(model->compiled_modules());

  SplitMix64 rng(GetParam() * 6151 + 3);
  std::vector<NodeId> targets;
  const std::size_t want = 2 + rng.next() % 5;
  while (targets.size() < want) {
    const NodeId v = static_cast<NodeId>(rng.next() % mg.node_count());
    if (std::find(targets.begin(), targets.end(), v) == targets.end()) {
      targets.push_back(v);
    }
  }
  const slice::SliceResult serial = slice::backward_slice_nodes(mg, targets);
  for (std::size_t jobs : {2u, 8u}) {
    ThreadPool pool(jobs);
    slice::SliceOptions opts;
    opts.pool = &pool;
    const slice::SliceResult par =
        slice::backward_slice_nodes(mg, targets, opts);
    EXPECT_EQ(par.nodes, serial.nodes);
    EXPECT_EQ(par.targets, serial.targets);
    EXPECT_EQ(par.subgraph.edge_count(), serial.subgraph.edge_count());
  }
}

TEST_P(ParallelDeterminism, EnsembleAndExperimentSetsMatchSerial) {
  // Fanning ensemble and experiment members out over the model's pool must
  // change nothing but wall time: matrices bit-identical to the serial
  // model's at every worker count, across FMA, reassociation and PRNG
  // configurations, with the same number of model runs counted.
  const model::CorpusSpec spec = small_spec(GetParam());
  std::vector<model::RunConfig> configs(5);
  configs[1].fma_all = true;
  configs[2].fma_all = true;
  configs[2].fma_disabled_modules = {"micro_mg", "cam_driver"};
  configs[3].reassoc_all = true;
  configs[4].prng_kind = "mt19937";

  struct Sample {
    std::vector<double> ensemble;
    std::vector<std::vector<double>> experiment;
    std::uint64_t runs = 0;
  };
  auto sample = [&configs](const model::CesmModel& m) {
    std::vector<Sample> out;
    for (const model::RunConfig& config : configs) {
      obs::global().set_enabled(true);
      obs::global().reset();
      Sample s;
      std::vector<std::string> names;
      const stats::Matrix ens =
          model::ensemble_matrix(m, config, 5, &names, 1);
      for (std::size_t i = 0; i < ens.rows(); ++i) {
        for (std::size_t j = 0; j < ens.cols(); ++j) {
          s.ensemble.push_back(ens.at(i, j));
        }
      }
      s.experiment = model::experiment_set(m, config, 3, 5000, names);
      s.runs = obs::global().counter("model.runs");
      obs::global().set_enabled(false);
      out.push_back(std::move(s));
    }
    return out;
  };

  const model::CesmModel serial_model(spec);
  const std::vector<Sample> serial = sample(serial_model);
  for (std::size_t workers : {1u, 2u, 8u}) {
    ThreadPool pool(workers);
    const model::CesmModel par_model(spec, &pool);
    const std::vector<Sample> par = sample(par_model);
    for (std::size_t c = 0; c < configs.size(); ++c) {
      // Bitwise comparison: EXPECT_EQ on doubles is exact.
      EXPECT_EQ(par[c].ensemble, serial[c].ensemble)
          << "config " << c << ", " << workers << " workers";
      EXPECT_EQ(par[c].experiment, serial[c].experiment)
          << "config " << c << ", " << workers << " workers";
      EXPECT_EQ(par[c].runs, serial[c].runs);
      EXPECT_EQ(par[c].runs, 8u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelDeterminism,
                         ::testing::Values(11u, 22u, 33u));

// ---------------------------------------------------------------------------
// ECT calibration: the false-positive rate falls as the threshold loosens.
// ---------------------------------------------------------------------------

TEST(EctCalibration, FprMonotoneInSigmaMultiplier) {
  SplitMix64 rng(404);
  const std::size_t members = 40, vars = 10;
  stats::Matrix ens(members, vars);
  for (std::size_t i = 0; i < members; ++i) {
    for (std::size_t j = 0; j < vars; ++j) {
      ens.at(i, j) = rng.uniform() + static_cast<double>(j);
    }
  }
  std::vector<std::string> names;
  for (std::size_t j = 0; j < vars; ++j) names.push_back("v" + std::to_string(j));

  double prev_rate = 1.1;
  for (double sigma : {1.0, 2.0, 3.29, 6.0}) {
    ect::EctOptions opts;
    opts.sigma_multiplier = sigma;
    opts.min_failing_pcs = 1;  // strictest aggregation for a clean sweep
    ect::EnsembleConsistencyTest ect(ens, names, opts);
    std::size_t failures = 0;
    const std::size_t trials = 40;
    for (std::size_t t = 0; t < trials; ++t) {
      std::vector<std::vector<double>> runs;
      for (int r = 0; r < 3; ++r) {
        std::vector<double> run(vars);
        for (std::size_t j = 0; j < vars; ++j) {
          run[j] = rng.uniform() + static_cast<double>(j);
        }
        runs.push_back(std::move(run));
      }
      if (!ect.evaluate(runs).pass) ++failures;
    }
    const double rate = static_cast<double>(failures) / trials;
    EXPECT_LE(rate, prev_rate + 0.075);  // monotone up to sampling noise
    prev_rate = rate;
  }
  EXPECT_LE(prev_rate, 0.05);  // 6-sigma threshold: essentially no FPs
}

}  // namespace
}  // namespace rca
