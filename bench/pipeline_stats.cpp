// Regenerates the paper's §2.1/§4 pipeline-reduction statistics:
//   * build-configuration filter: ~2400 -> ~820 modules (KGen);
//   * coverage filter: ~30% of modules and ~60% of subprograms removed;
//   * parsing: all but ~10 assignments of ~660k lines handled;
//   * variable digraph: ~100k nodes / ~170k edges;
//   * module quotient graph: 561 nodes / 4,245 edges.
// Our corpus is scaled (~1/10 modules); the *ratios* are the comparison.
#include <algorithm>
#include <fstream>
#include <thread>

#include "bench/bench_common.hpp"
#include "cov/coverage_filter.hpp"
#include "graph/centrality.hpp"
#include "meta/builder.hpp"
#include "meta/serialize.hpp"
#include "obs/obs.hpp"
#include "slice/slicer.hpp"
#include "support/stopwatch.hpp"
#include "support/thread_pool.hpp"

using namespace rca;

int main(int argc, char** argv) {
  bench::banner("Pipeline statistics — search-space reduction stages",
                "paper: 2400->820 modules; -30% modules/-60% subprograms by "
                "coverage; ~100k/170k graph; 561/4245 quotient");

  Stopwatch sw;
  engine::PipelineConfig config = bench::default_config();
  engine::Pipeline pipe(config);
  const model::CesmModel& model = pipe.control_model();
  const meta::Metagraph& mg = pipe.metagraph();

  const cov::CoverageFilter filter(model.coverage_run(2),
                                   &model.compiled_modules());
  const auto stats =
      cov::compute_filter_stats(model.compiled_modules(), filter);

  Table table("Reduction stages");
  table.set_header({"Stage", "measured", "paper"});
  table.add_row({"modules in source tree",
                 Table::integer(static_cast<long long>(
                     model.corpus().total_modules)),
                 "~2400"});
  table.add_row({"modules in build configuration",
                 Table::integer(static_cast<long long>(
                     model.corpus().compiled_modules.size())),
                 "~820"});
  table.add_row({"coverage: module reduction",
                 Table::percent(stats.module_reduction()), "~30%"});
  table.add_row({"coverage: subprogram reduction",
                 Table::percent(stats.subprogram_reduction()), "~60%"});
  table.add_row({"source lines (compiled modules)",
                 Table::integer(static_cast<long long>(stats.lines_total)),
                 "~1.5M"});
  table.add_row({"source lines after coverage",
                 Table::integer(static_cast<long long>(stats.lines_kept)),
                 "~660k"});
  table.add_row({"parse failures",
                 Table::integer(static_cast<long long>(model.parse_failures())),
                 "~10 assignments"});
  table.add_row({"assignments processed",
                 Table::integer(static_cast<long long>(
                     mg.assignments_processed)),
                 "-"});
  table.add_row({"assignments failed",
                 Table::integer(static_cast<long long>(mg.assignments_failed)),
                 "10"});
  table.add_row({"digraph nodes",
                 Table::integer(static_cast<long long>(mg.node_count())),
                 "~100,000"});
  table.add_row({"digraph edges",
                 Table::integer(static_cast<long long>(
                     mg.graph().edge_count())),
                 "~170,000"});

  const auto classes = mg.module_classes();
  graph::Digraph quotient =
      graph::quotient_graph(mg.graph(), classes, mg.modules().size());
  table.add_row({"module quotient nodes",
                 Table::integer(static_cast<long long>(quotient.node_count())),
                 "561"});
  table.add_row({"module quotient edges",
                 Table::integer(static_cast<long long>(quotient.edge_count())),
                 "4,245"});
  table.print(std::cout);

  const bool shape_holds =
      model.corpus().compiled_modules.size() * 2 <
          model.corpus().total_modules &&
      stats.module_reduction() > 0.1 && stats.module_reduction() < 0.5 &&
      stats.subprogram_reduction() > 0.4 &&
      mg.graph().edge_count() > mg.node_count() &&
      model.parse_failures() == 0;
  std::printf("\nshape check (each stage reduces as in the paper): %s\n",
              shape_holds ? "HOLDS" : "VIOLATED");

  // Front-end scaling: the generate+parse+build path serially vs on a pool
  // sized to this host, with a byte-identity check (the parallel front end
  // must be a pure speedup, never a different graph). On a single-core
  // container the speedup collapses to ~1x by construction.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  Stopwatch fe_serial_sw;
  model::CesmModel fe_serial(config.corpus);
  meta::Metagraph fe_serial_mg =
      meta::build_metagraph(fe_serial.compiled_modules());
  const double fe_serial_s = fe_serial_sw.seconds();

  ThreadPool fe_pool(hw);
  meta::BuilderOptions fe_opts;
  fe_opts.pool = &fe_pool;
  Stopwatch fe_par_sw;
  model::CesmModel fe_par(config.corpus, &fe_pool);
  meta::Metagraph fe_par_mg =
      meta::build_metagraph(fe_par.compiled_modules(), fe_opts);
  const double fe_par_s = fe_par_sw.seconds();

  const bool fe_identical = meta::save_metagraph_to_string(fe_serial_mg) ==
                            meta::save_metagraph_to_string(fe_par_mg);
  std::printf("\nfront end (generate+parse+build, %u workers):\n", hw);
  std::printf("  serial:   %.3fs\n  parallel: %.3fs (%.2fx)  graphs %s\n",
              fe_serial_s, fe_par_s,
              fe_par_s > 0 ? fe_serial_s / fe_par_s : 0.0,
              fe_identical ? "byte-identical" : "DIFFER (BUG)");

  // Snapshot formats: size and load time, the warm-cache alternative to the
  // front end above.
  const std::string v1 = meta::save_metagraph_to_string(fe_serial_mg);
  const std::string v2 = meta::save_metagraph_to_string(
      fe_serial_mg, meta::SnapshotFormat::kV2Binary);
  Stopwatch load_sw;
  meta::Metagraph reloaded = meta::load_metagraph_from_string(v2);
  const double load_s = load_sw.seconds();
  std::printf("snapshot: v1 text %zu bytes, v2 binary %zu bytes (%.0f%%); "
              "v2 load %.3fs vs front end %.3fs (%.0fx)\n",
              v1.size(), v2.size(), 100.0 * v2.size() / v1.size(), load_s,
              fe_serial_s, load_s > 0 ? fe_serial_s / load_s : 0.0);
  const bool snapshot_ok =
      fe_identical && meta::save_metagraph_to_string(reloaded) == v1;

  // Dead-store pruning: the lint liveness facts feed the builder
  // (--prune-dead-stores), dropping whole-variable stores no path reads
  // again. The corpus's micro_mg carries CESM-style "dum churn" — the
  // temporary reassigned from nearly every process variable that the paper's
  // §6.4 singles out as the physics community's most in-central node — so
  // pruning must shrink both the digraph and the backward slice from the
  // temperature tendency.
  meta::BuilderOptions prune_opts;
  prune_opts.prune_dead_stores = true;
  meta::Metagraph pruned_mg =
      meta::build_metagraph(fe_serial.compiled_modules(), prune_opts);
  const auto slice_plain = slice::backward_slice(fe_serial_mg, {"ttend"});
  const auto slice_pruned = slice::backward_slice(pruned_mg, {"ttend"});
  std::printf("\ndead-store pruning (--prune-dead-stores):\n");
  std::printf("  stores pruned: %zu\n", pruned_mg.dead_stores_pruned);
  std::printf("  digraph: %zu -> %zu nodes, %zu -> %zu edges\n",
              fe_serial_mg.node_count(), pruned_mg.node_count(),
              fe_serial_mg.graph().edge_count(),
              pruned_mg.graph().edge_count());
  std::printf("  slice(ttend): %zu -> %zu nodes, %zu -> %zu edges\n",
              slice_plain.nodes.size(), slice_pruned.nodes.size(),
              slice_plain.subgraph.edge_count(),
              slice_pruned.subgraph.edge_count());
  const bool prune_ok = pruned_mg.dead_stores_pruned > 0 &&
                        pruned_mg.node_count() < fe_serial_mg.node_count() &&
                        slice_pruned.nodes.size() < slice_plain.nodes.size();
  std::printf("  shrinks graph and slice: %s\n",
              prune_ok ? "HOLDS" : "VIOLATED");

  // Summary-informed pruning (--summary-prune): mod/ref summaries let the
  // liveness pass see through call sites (an argument a callee never reads is
  // not a use), so it prunes at least as many stores as the intraprocedural
  // pass and the graph/slice can only shrink further.
  meta::BuilderOptions sum_opts;
  sum_opts.prune_dead_stores = true;
  sum_opts.summary_informed_pruning = true;
  meta::Metagraph summary_mg =
      meta::build_metagraph(fe_serial.compiled_modules(), sum_opts);
  const auto slice_summary = slice::backward_slice(summary_mg, {"ttend"});
  std::printf("\nsummary-informed pruning (--summary-prune):\n");
  std::printf("  stores pruned: %zu (intraprocedural: %zu, delta +%zu)\n",
              summary_mg.dead_stores_pruned, pruned_mg.dead_stores_pruned,
              summary_mg.dead_stores_pruned - pruned_mg.dead_stores_pruned);
  std::printf("  digraph: %zu -> %zu nodes, %zu -> %zu edges\n",
              pruned_mg.node_count(), summary_mg.node_count(),
              pruned_mg.graph().edge_count(), summary_mg.graph().edge_count());
  std::printf("  slice(ttend): %zu -> %zu nodes, %zu -> %zu edges\n",
              slice_pruned.nodes.size(), slice_summary.nodes.size(),
              slice_pruned.subgraph.edge_count(),
              slice_summary.subgraph.edge_count());
  const bool summary_ok =
      summary_mg.dead_stores_pruned >= pruned_mg.dead_stores_pruned &&
      summary_mg.node_count() <= pruned_mg.node_count() &&
      slice_summary.nodes.size() <= slice_pruned.nodes.size();
  std::printf("  never coarser than intraprocedural pruning: %s\n",
              summary_ok ? "HOLDS" : "VIOLATED");

  // Interpreter throughput: cost per executed assignment of one model run
  // (cam_init + 9 cam_step over the shared compiled Program), unwatched and
  // with 10 runtime-sampling watches, then whole runs per second when
  // members fan out over 1 and 4 pool workers.
  auto time_run = [&model](const std::vector<interp::WatchKey>& watches) {
    interp::Interpreter run(model.program());
    for (const auto& w : watches) run.add_watch(w);
    Stopwatch run_sw;
    run.call("cam_driver", "cam_init");
    for (int step = 0; step < 9; ++step) run.call("cam_driver", "cam_step");
    return run_sw.seconds() * 1e9 /
           static_cast<double>(std::max<std::uint64_t>(
               1, run.assignments_executed()));
  };
  auto median_ns = [&time_run](const std::vector<interp::WatchKey>& watches) {
    std::vector<double> ns;
    for (int rep = 0; rep < 15; ++rep) ns.push_back(time_run(watches));
    std::sort(ns.begin(), ns.end());
    return ns[ns.size() / 2];
  };
  std::vector<interp::WatchKey> watches;
  for (graph::NodeId v = 0; v < mg.node_count() && watches.size() < 10; ++v) {
    watches.push_back(mg.watch_key(v));
  }
  const double ns_plain = median_ns({});
  const double ns_watched = median_ns(watches);
  std::printf("\ninterpreter (shared Program, one run = init + 9 steps):\n");
  std::printf("  ns per assignment: %.1f unwatched, %.1f with %zu watches\n",
              ns_plain, ns_watched, watches.size());
  for (std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool run_pool(workers);
    constexpr std::size_t kRuns = 32;
    Stopwatch runs_sw;
    run_pool.parallel_for(kRuns, [&model](std::size_t i) {
      model::RunConfig config;
      config.member_seed = i + 1;
      model.run(config);
    });
    std::printf("  runs/s at %zu worker%s: %.0f\n", workers,
                workers == 1 ? "" : "s",
                static_cast<double>(kRuns) / runs_sw.seconds());
  }

  // Observability overhead: the same experiment with the metrics sink
  // disabled (instrumentation compiled in, branches off) and enabled. The
  // disabled-sink run must stay within noise of uninstrumented speed.
  obs::global().set_enabled(false);
  pipe.run_scenario(bench::scenario("goffgratch"));  // warm caches
  Stopwatch off_sw;
  pipe.run_scenario(bench::scenario("goffgratch"));
  const double off_s = off_sw.seconds();

  obs::global().set_enabled(true);
  obs::global().reset();
  Stopwatch on_sw;
  pipe.run_scenario(bench::scenario("goffgratch"));
  const double on_s = on_sw.seconds();
  obs::global().set_enabled(false);

  std::printf("\nobservability overhead (GOFFGRATCH experiment):\n");
  std::printf("  sink disabled: %.3fs\n  sink enabled:  %.3fs (+%.1f%%)\n",
              off_s, on_s, off_s > 0 ? (on_s / off_s - 1.0) * 100.0 : 0.0);

  const std::string metrics_path =
      argc > 1 ? argv[1] : "pipeline_stats_metrics.json";
  std::ofstream out(metrics_path);
  out << obs::global().to_json() << "\n";
  std::printf("wrote metrics to %s (%zu spans, model runs: %llu)\n",
              metrics_path.c_str(), obs::global().spans().size(),
              static_cast<unsigned long long>(
                  obs::global().counter("model.runs")));

  std::printf("elapsed: %.1fs\n", sw.seconds());
  return (shape_holds && snapshot_ok && prune_ok && summary_ok) ? 0 : 1;
}
