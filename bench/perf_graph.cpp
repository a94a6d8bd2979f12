// Graph-kernel perf trajectory: the operations Algorithm 5.4 performs per
// iteration, timed on the synthetic corpus at two scales and written as
// machine-readable JSON (BENCH_graph.json) that CI diffs against the
// committed baseline (tools/bench_diff.cmake).
//
// Fixtures:
//   * default — the unit-test CorpusSpec (~1.5k metagraph nodes), roughly a
//     CESM slice;
//   * cesm    — model::cesm_scale_spec() (~2400 modules, ~16k metagraph
//     nodes), the paper's full-code-base scale.
//
// Besides the timings, the run self-gates the sampled-betweenness contract:
// at cesm scale the pivot-sampled estimate must be >= kMinSampledSpeedup
// faster than exact AND rank-correlate with it (Spearman >=
// kMinSampledSpearman over all edges). Either failure exits nonzero so the
// CI lane fails even before the baseline diff.
//
// Timings are reported raw (median_ms) and normalized by a fixed serial
// calibration workload (normalized = median_ms / calibration_ms), so the
// baseline diff tolerates absolute speed differences between runners and
// only trips on relative regressions of the kernels themselves.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "graph/betweenness.hpp"
#include "graph/bfs.hpp"
#include "graph/centrality.hpp"
#include "graph/girvan_newman.hpp"
#include "graph/louvain.hpp"
#include "meta/builder.hpp"
#include "model/corpus.hpp"
#include "model/model.hpp"
#include "stats/descriptive.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"

namespace rca {
namespace {

constexpr double kMinSampledSpeedup = 5.0;
constexpr double kMinSampledSpearman = 0.9;
constexpr std::size_t kPoolWorkers = 8;

struct Kernel {
  std::string name;
  double median_ms = 0.0;
};

class Harness {
 public:
  explicit Harness(int repeats) : repeats_(repeats) {}

  /// Times `fn` `repeats` times and records the median, after one untimed
  /// warm-up call: a kernel's first call pays cold caches and page faults,
  /// which a sub-millisecond median of three does not absorb. `setup`
  /// (optional) runs untimed before every call — fixtures that the kernel
  /// mutates are rebuilt there.
  double run(const std::string& name, const std::function<void()>& fn,
             const std::function<void()>& setup = nullptr) {
    if (setup) setup();
    fn();
    std::vector<double> times;
    times.reserve(static_cast<std::size_t>(repeats_));
    for (int r = 0; r < repeats_; ++r) {
      if (setup) setup();
      times.push_back(bench::time_ms(fn));
    }
    const double med = stats::median(times);
    std::printf("  %-34s %10.2f ms (median of %d)\n", name.c_str(), med,
                repeats_);
    std::fflush(stdout);
    kernels_.push_back(Kernel{name, med});
    return med;
  }

  const std::vector<Kernel>& kernels() const { return kernels_; }

 private:
  int repeats_;
  std::vector<Kernel> kernels_;
};

struct Fixture {
  meta::Metagraph mg;
  std::size_t nodes = 0;
  std::size_t edges = 0;
};

Fixture build_fixture(const model::CorpusSpec& spec, ThreadPool& pool) {
  model::CesmModel model(spec);
  meta::BuilderOptions opts;
  opts.pool = &pool;
  Fixture f{meta::build_metagraph(model.compiled_modules(), opts)};
  f.nodes = f.mg.node_count();
  f.edges = f.mg.graph().edge_count();
  return f;
}

int usage() {
  std::fprintf(stderr,
               "usage: perf_graph [--json FILE] [--samples N] [--repeats N] "
               "[--quick]\n");
  return 2;
}

}  // namespace
}  // namespace rca

int main(int argc, char** argv) {
  using namespace rca;
  std::string json_path;
  std::size_t samples = 256;
  int repeats = 3;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--samples" && i + 1 < argc) {
      samples = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--repeats" && i + 1 < argc) {
      repeats = std::atoi(argv[++i]);
    } else if (arg == "--quick") {
      quick = true;
    } else {
      return usage();
    }
  }
  if (quick) repeats = 1;
  if (repeats < 1) return usage();

  ThreadPool pool(kPoolWorkers);

  std::printf("calibrating...\n");
  const double calib = bench::calibration_ms();
  std::printf("  calibration workload: %.2f ms\n", calib);

  std::printf("building fixtures...\n");
  Fixture small = build_fixture(model::CorpusSpec{}, pool);
  std::printf("  default: %zu nodes, %zu edges\n", small.nodes, small.edges);
  Fixture big = build_fixture(model::cesm_scale_spec(), pool);
  std::printf("  cesm:    %zu nodes, %zu edges\n", big.nodes, big.edges);

  Harness h(repeats);

  // --- BFS / components at full scale -------------------------------------
  std::printf("kernels:\n");
  h.run("bfs_ancestors_cesm",
        [&] { (void)graph::ancestors_of(big.mg.graph(), {0}); });
  h.run("wcc_cesm", [&] {
    std::size_t count = 0;
    (void)graph::weakly_connected_components(big.mg.graph(), &count);
  });

  // --- betweenness: exact vs sampled, full scale ---------------------------
  const graph::UGraph big_ug(big.mg.graph());
  std::vector<double> bc_exact, bc_sampled;
  graph::BetweennessOptions exact_opts;
  exact_opts.pool = &pool;
  const double exact_ms = h.run("betweenness_exact_cesm", [&] {
    bc_exact = graph::edge_betweenness(big_ug, exact_opts);
  });
  graph::BetweennessOptions sampled_opts = exact_opts;
  sampled_opts.samples = samples;
  const double sampled_ms = h.run("betweenness_sampled_cesm", [&] {
    bc_sampled = graph::edge_betweenness(big_ug, sampled_opts);
  });

  // --- betweenness + one G-N split step at slice scale ---------------------
  const graph::UGraph small_ug(small.mg.graph());
  h.run("betweenness_exact_default",
        [&] { (void)graph::edge_betweenness(small_ug); });
  {
    graph::UGraph scratch(small.mg.graph());
    graph::GnStepOptions step;
    step.pool = &pool;
    h.run(
        "gn_step_default", [&] { (void)graph::girvan_newman_step(scratch, step); },
        [&] { scratch = graph::UGraph(small.mg.graph()); });
  }
  {
    graph::UGraph scratch(big.mg.graph());
    graph::GnStepOptions step;
    step.pool = &pool;
    step.betweenness_samples = samples;
    h.run(
        "gn_step_sampled_cesm",
        [&] { (void)graph::girvan_newman_step(scratch, step); },
        [&] { scratch = graph::UGraph(big.mg.graph()); });
  }

  // --- Louvain at full scale ----------------------------------------------
  h.run("louvain_cesm", [&] {
    graph::LouvainOptions opts;
    (void)graph::louvain(big.mg.graph(), opts);
  });

  // --- power iteration, both scales ---------------------------------------
  h.run("power_iteration_serial_default", [&] {
    (void)graph::eigenvector_centrality(small.mg.graph(),
                                        graph::Direction::kIn);
  });
  h.run("power_iteration_serial_cesm", [&] {
    (void)graph::eigenvector_centrality(big.mg.graph(), graph::Direction::kIn);
  });

  // --- acceptance gates ----------------------------------------------------
  const double speedup = sampled_ms > 0.0 ? exact_ms / sampled_ms : 0.0;
  const double rho = stats::spearman(bc_exact, bc_sampled);
  const bool speedup_ok = speedup >= kMinSampledSpeedup;
  const bool spearman_ok = rho >= kMinSampledSpearman;
  std::printf("gates:\n");
  std::printf("  sampled speedup  %.1fx (need >= %.1fx) %s\n", speedup,
              kMinSampledSpeedup, speedup_ok ? "PASS" : "FAIL");
  std::printf("  sampled spearman %.4f (need >= %.2f) %s\n", rho,
              kMinSampledSpearman, spearman_ok ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    JsonWriter w;
    w.begin_object();
    w.key("schema");
    w.string_value("rca.bench_graph.v1");
    w.key("samples");
    w.integer(static_cast<long long>(samples));
    w.key("repeats");
    w.integer(repeats);
    w.key("calibration_ms");
    w.number(calib);
    w.key("fixtures");
    w.begin_object();
    for (const auto* f : {&small, &big}) {
      w.key(f == &small ? "default" : "cesm");
      w.begin_object();
      w.key("nodes");
      w.integer(static_cast<long long>(f->nodes));
      w.key("edges");
      w.integer(static_cast<long long>(f->edges));
      w.end_object();
    }
    w.end_object();
    w.key("kernels");
    w.begin_object();
    for (const Kernel& k : h.kernels()) {
      w.key(k.name);
      w.begin_object();
      w.key("median_ms");
      w.number(k.median_ms);
      w.key("normalized");
      w.number(calib > 0.0 ? k.median_ms / calib : 0.0);
      w.end_object();
    }
    w.end_object();
    w.key("gates");
    w.begin_object();
    w.key("sampled_speedup");
    w.number(speedup);
    w.key("sampled_spearman");
    w.number(rho);
    w.key("pass");
    w.boolean(speedup_ok && spearman_ok);
    w.end_object();
    w.end_object();
    std::ofstream out(json_path);
    out << w.str() << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }

  return (speedup_ok && spearman_ok) ? 0 : 1;
}
