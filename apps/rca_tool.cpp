// rca-tool — command-line interface to the climate-rca pipeline.
//
//   rca-tool generate    --out DIR [--seed N] [--bug NAME] [--aux N]
//   rca-tool graph       --src DIR [--build-list FILE] [--coverage] --out FILE
//                        [--format v1|v2] [--jobs N] [--snapshot DIR]
//                        [--prune-dead-stores] [--summary-prune]
//   rca-tool lint        --src DIR [--build-list FILE] [--jobs N]
//                        [--json FILE] [--tsv FILE] [--fail-on error|warn|none]
//                        [--interprocedural | --no-interprocedural]
//                        [--summaries-out FILE] [--fpsense-out FILE]
//   rca-tool info        --graph FILE
//   rca-tool slice       --graph FILE (--target NAME | --output LABEL)...
//                        [--cam-only] [--drop-small N] [--dot FILE]
//   rca-tool communities --graph FILE [--method gn|louvain] [--min-size N]
//                        [--iterations N] [--samples N] [--seed N]
//                        [--budget-ms N] [--dot FILE]
//   rca-tool centrality  --graph FILE [--kind KIND] [--top N] [--modules]
//   rca-tool analyze     --experiment NAME [--runtime-sampling]
//                        (NAME: a scenario name, or the paper's experiment
//                        wsubbug|rand-mt|goffgratch|avx2|randombug|dyn3bug)
//                        [--members N] [--seed N] [--jobs N]
//                        [--graph-out FILE] [--prune-dead-stores]
//   rca-tool serve       [--port N] [--port-file FILE] [--snapshot DIR]
//                        [--jobs N] [--request-threads N]
//                        [--max-in-flight N] [--deadline-ms N]
//                        [--session-bytes N] [--campaigns N]
//                        [--campaign-threads N] [--generation N]
//                        [--stable-health]
//   rca-tool fleet       [--workers N] [--port N] [--port-file FILE]
//                        [--snapshot DIR] [--run-dir DIR]
//                        [--worker-binary PATH] [--gateway-threads N]
//                        [--probe-interval-ms N] [--probe-timeout-ms N]
//                        [--probe-strikes N] [--backoff-initial-ms N]
//                        [--backoff-cap-ms N] [--retry-attempts N]
//                        [--retry-base-ms N] [--retry-cap-ms N]
//                        (plus serve tuning flags, forwarded to workers)
//   rca-tool refine      (--scenario NAME [--seed N] [--runtime]
//                         | --src DIR --bug NAME...
//                           (--target NAME | --output LABEL)...)
//                        [--top N] [--max-iterations N] [--samples N]
//                        [--min-size N] [--small-enough N]
//                        [--method gn|louvain] [--cam-only] [--drop-small N]
//                        [--jobs N] [--json FILE] [--snapshot DIR]
//   rca-tool score       [--scenario NAME]... [--top N] [--runtime]
//                        [--members N] [--jobs N] [--json FILE]
//   rca-tool watch       --src DIR [--build-list FILE] [--prune-dead-stores]
//                        [--interval-ms N] [--iterations N] [--jobs N]
//                        [--snapshot DIR]
//
// `--jobs N` parses/builds on N worker threads (bit-identical to serial);
// `--snapshot DIR` (graph, serve, fleet, refine, watch) caches built
// metagraphs keyed on source content, so an unchanged corpus skips
// parse+build (counter meta.snapshot.hits).
//
// `generate` writes a synthetic-CESM source tree; `graph` parses any
// directory of Fortran-subset files into a serialized metagraph; the rest
// operate on saved metagraphs — so the full §4-§5 workflow runs from a
// shell, like the paper's Python toolkit did.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "analysis/fpsense.hpp"
#include "analysis/passes.hpp"
#include "analysis/summaries.hpp"
#include "campaign/campaign.hpp"
#include "campaign/score.hpp"
#include "engine/pipeline.hpp"
#include "fault/fault.hpp"
#include "fleet/gateway.hpp"
#include "fleet/supervisor.hpp"
#include "graph/centrality.hpp"
#include "graph/degree_dist.hpp"
#include "graph/dot_export.hpp"
#include "graph/girvan_newman.hpp"
#include "graph/louvain.hpp"
#include "meta/serialize.hpp"
#include "meta/snapshot_cache.hpp"
#include "model/corpus.hpp"
#include "model/model.hpp"
#include "obs/obs.hpp"
#include "service/build_info.hpp"
#include "service/front_end.hpp"
#include "service/http_server.hpp"
#include "service/router.hpp"
#include "service/session_store.hpp"
#include "slice/slicer.hpp"
#include "support/args.hpp"
#include "support/fsio.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace fs = std::filesystem;
using namespace rca;

namespace {

int usage() {
  std::cerr <<
      "rca-tool — root cause analysis for large Fortran-style code bases\n"
      "\n"
      "subcommands:\n"
      "  generate     write a synthetic-CESM corpus to disk\n"
      "  graph        parse sources into a serialized variable digraph\n"
      "  lint         run the dataflow lint passes, report diagnostics\n"
      "  info         summarize a saved graph\n"
      "  slice        backward slice from output labels / canonical names\n"
      "  communities  Girvan-Newman or Louvain partition of a slice\n"
      "  centrality   rank nodes or modules\n"
      "  analyze      run one planted scenario (a paper experiment) through\n"
      "               the full pipeline on the synthetic model\n"
      "  serve        resident RCA query daemon (HTTP/JSON on 127.0.0.1)\n"
      "  fleet        supervised multi-process worker fleet behind one\n"
      "               loopback gateway (crash containment + warm restart)\n"
      "  refine       run one refinement campaign to completion, print the\n"
      "               rca.campaign.v1 progress + result documents\n"
      "  score        run the planted-scenario library through the full\n"
      "               pipeline, report top-m hit-rate\n"
      "  watch        keep a resident session patched as sources change\n"
      "\n"
      "analyze options:\n"
      "  --experiment NAME    scenario or paper experiment (default\n"
      "                       goffgratch): wsub|wsubbug, prng|rand-mt,\n"
      "                       goffgratch, fma-contraction|avx2,\n"
      "                       random-node|randombug, dyn3|dyn3bug, reassoc3\n"
      "  --runtime-sampling   sample by real runs instead of simulation\n"
      "  --members N          ensemble members (default 30)\n"
      "\n"
      "refine options:\n"
      "  --scenario NAME      planted scenario (see `score`); runs ECT ->\n"
      "                       selection -> slice -> refinement as `score`\n"
      "  --seed N             scenario corpus seed (default 2019)\n"
      "  --runtime            sample by real ensemble-vs-experiment runs\n"
      "  --src DIR            session campaign over an on-disk corpus\n"
      "  --bug NAME           ground-truth canonical name(s) (session mode)\n"
      "  --target/--output    slicing criteria (session mode)\n"
      "  --method gn|louvain  community detector (default gn)\n"
      "  --top N              ranked sites reported (default 15)\n"
      "  --json FILE          also write the result document to FILE\n"
      "\n"
      "centrality options:\n"
      "  --kind KIND          in-centrality (default eigenvector): degree,\n"
      "                       pagerank, katz, closeness, nonbacktracking,\n"
      "                       betweenness (exact), inout-eigenvector\n"
      "  --top N              ranked nodes reported (default 15)\n"
      "  --modules            rank modules of the module quotient graph\n"
      "\n"
      "score options:\n"
      "  --scenario NAME      restrict to named scenario(s); repeatable\n"
      "  --top N              hit threshold top-m (default 15)\n"
      "  --members N          ensemble members (default 40)\n"
      "  --runtime            RuntimeSampler instead of simulated sampling\n"
      "  --json FILE          write the rca.campaign.score.v1 scoreboard\n"
      "\n"
      "watch options:\n"
      "  --src DIR            source tree to watch (required)\n"
      "  --build-list FILE    build configuration (one module per line)\n"
      "  --prune-dead-stores  builder option, as in `graph`\n"
      "  --interval-ms N      poll interval (default 500)\n"
      "  --iterations N       stop after N polls (default 0 = run forever)\n"
      "  --jobs N             parse/build worker threads\n"
      "  --snapshot DIR       snapshot-cache dir (cold start + persistence)\n"
      "\n"
      "serve options:\n"
      "  --port N             listen port (default 0 = ephemeral)\n"
      "  --port-file FILE     write the chosen port to FILE after binding\n"
      "  --snapshot DIR       snapshot-cache dir for session warm starts\n"
      "  --jobs N             parse/build worker threads (default serial)\n"
      "  --request-threads N  request execution pool size (default 4)\n"
      "  --max-in-flight N    reject (429) past N queued+running requests\n"
      "  --deadline-ms N      default per-request deadline (default 30000)\n"
      "  --session-bytes N    resident session byte budget (LRU eviction)\n"
      "  --campaigns N        concurrent refinement campaigns (default 8)\n"
      "  --campaign-threads N campaign engine pool size (default 2)\n"
      "  --generation N       worker generation reported by /v1/health\n"
      "  --stable-health      byte-stable /v1/health (uptime_ms = 0)\n"
      "\n"
      "fleet options (serve tuning flags are forwarded to every worker):\n"
      "  --workers N          worker shard processes (default 4)\n"
      "  --run-dir DIR        port files + worker logs (default fleet-run)\n"
      "  --worker-binary P    worker executable (default /proc/self/exe)\n"
      "  --probe-interval-ms / --probe-timeout-ms / --probe-strikes\n"
      "                       health-probe cadence, timeout, kill threshold\n"
      "  --backoff-initial-ms / --backoff-cap-ms\n"
      "                       exponential jittered respawn backoff bounds\n"
      "  --retry-attempts / --retry-base-ms / --retry-cap-ms\n"
      "                       gateway per-request retry budget and backoff\n"
      "\n"
      "global options (any subcommand):\n"
      "  --metrics-out FILE   record spans/counters/histograms, write JSON\n"
      "  --trace              print the span tree to stderr on exit\n"
      "  --fault-spec SPEC    arm deterministic fault injection (also via\n"
      "                       RCA_FAULTS); SPEC is seed=N and comma-joined\n"
      "                       site:probability:action[:after_n[:max_fires]]\n"
      "                       entries, action throw|errno|delay-MS|short-write\n"
      "  --version            print the build id (shared with /v1/health)\n"
      "\n"
      "run `rca-tool <subcommand> --help` semantics are documented at the\n"
      "top of apps/rca_tool.cpp and in README.md.\n";
  return 2;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read " + path.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const fs::path& path, const std::string& text) {
  if (!path.parent_path().empty()) fs::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot write " + path.string());
  out << text;
}

model::BugId parse_bug(const std::string& name) {
  if (name.empty() || name == "none") return model::BugId::kNone;
  if (name == "wsub") return model::BugId::kWsub;
  if (name == "random") return model::BugId::kRandom;
  if (name == "dyn3") return model::BugId::kDyn3;
  if (name == "goffgratch") return model::BugId::kGoffGratch;
  throw Error("unknown --bug '" + name + "' (none|wsub|random|dyn3|goffgratch)");
}

// ---------------------------------------------------------------------------
// generate
// ---------------------------------------------------------------------------

int cmd_generate(const Args& args) {
  const fs::path out_dir = args.get("out", "corpus");
  model::CorpusSpec spec;
  spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 2019));
  spec.bug = parse_bug(args.get("bug"));
  if (args.has("aux")) {
    spec.total_aux_modules = static_cast<std::size_t>(args.get_int("aux", 180));
  }
  model::GeneratedCorpus corpus = model::generate_corpus(spec);
  for (const auto& file : corpus.files) {
    write_file(out_dir / file.path, file.text);
  }
  std::string build_list;
  for (const auto& name : corpus.compiled_modules) build_list += name + "\n";
  write_file(out_dir / "build_list.txt", build_list);
  std::printf("wrote %zu files (%zu modules, %zu in build configuration) to "
              "%s\n", corpus.files.size(), corpus.total_modules,
              corpus.compiled_modules.size(), out_dir.string().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Shared front-end helpers (graph, lint, watch). Source collection, parsing
// and the build-list filter live in src/service/front_end.*, and `graph`
// builds through service::SessionStore, so the CLI and the resident daemon
// run the exact same front end.
// ---------------------------------------------------------------------------

/// Optional build-configuration list (one module name per line).
std::vector<std::string> read_build_list(const Args& args) {
  std::vector<std::string> build_list;
  if (args.has("build-list")) {
    std::istringstream in(read_file(args.get("build-list")));
    std::string line;
    while (std::getline(in, line)) {
      const std::string name = std::string(trim(line));
      if (!name.empty()) build_list.push_back(name);
    }
  }
  return build_list;
}

// ---------------------------------------------------------------------------
// graph
// ---------------------------------------------------------------------------

int cmd_graph(const Args& args) {
  const fs::path src_dir = args.get("src");
  const fs::path out_path = args.get("out", "metagraph.tsv");
  if (src_dir.empty()) throw Error("graph: --src DIR is required");

  const std::string format_name = args.get("format", "v1");
  meta::SnapshotFormat format;
  if (format_name == "v1") {
    format = meta::SnapshotFormat::kV1Text;
  } else if (format_name == "v2") {
    format = meta::SnapshotFormat::kV2Binary;
  } else {
    throw Error("graph: unknown --format '" + format_name + "' (v1|v2)");
  }

  const std::size_t jobs = static_cast<std::size_t>(args.get_int("jobs", 0));
  std::unique_ptr<ThreadPool> pool;
  if (jobs > 1) pool = std::make_unique<ThreadPool>(jobs);

  service::SessionConfig config;
  config.build_list = read_build_list(args);
  config.coverage = args.has("coverage");
  config.coverage_steps = static_cast<int>(args.get_int("coverage-steps", 2));
  // --summary-prune sharpens the liveness pruning with interprocedural
  // mod/ref summaries; it implies --prune-dead-stores.
  config.summary_informed_pruning = args.has("summary-prune");
  config.prune_dead_stores =
      args.has("prune-dead-stores") || config.summary_informed_pruning;

  // The session store is the corpus front end: it keys the snapshot cache,
  // runs the coverage filter and builds the graph for `watch` and `serve`
  // too, so a snapshot written here warm-starts them (and vice versa).
  service::SessionStoreOptions store_opts;
  store_opts.snapshot_dir = args.get("snapshot");
  store_opts.build_pool = pool.get();
  service::SessionStore store(store_opts);
  const std::shared_ptr<const service::Session> session = store.get_or_build(
      config, service::collect_fortran_sources(src_dir.string()));
  const meta::Metagraph& mg = session->metagraph();
  if (session->warm_started()) {
    std::printf("snapshot cache hit: skipping parse+build (%s)\n",
                meta::SnapshotCache(store_opts.snapshot_dir)
                    .path_for(service::SessionStore::snapshot_key(
                        config, session->sources()))
                    .c_str());
  } else {
    const auto& parse_errors = session->parse_errors();
    for (const auto& [path, message] : parse_errors) {
      (void)path;
      std::fprintf(stderr, "parse failure: %s\n", message.c_str());
    }
    std::printf("parsed %zu files (%zu failures), %zu modules in build "
                "configuration\n",
                session->sources().size() - parse_errors.size(),
                parse_errors.size(), session->modules().size());
    if (config.prune_dead_stores) {
      std::printf("dead stores pruned: %zu\n", mg.dead_stores_pruned);
    }
  }

  std::ofstream out(out_path, std::ios::binary);
  meta::save_metagraph(mg, out, format);
  std::printf("metagraph: %zu nodes, %zu edges, %zu I/O labels -> %s\n",
              mg.node_count(), mg.graph().edge_count(), mg.io_map().size(),
              out_path.string().c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// lint
// ---------------------------------------------------------------------------

int cmd_lint(const Args& args) {
  const fs::path src_dir = args.get("src");
  if (src_dir.empty()) throw Error("lint: --src DIR is required");
  const std::string fail_on = args.get("fail-on", "error");
  if (fail_on != "error" && fail_on != "warn" && fail_on != "none") {
    throw Error("lint: unknown --fail-on '" + fail_on +
                "' (error|warn|none)");
  }

  const std::size_t jobs = static_cast<std::size_t>(args.get_int("jobs", 0));
  std::unique_ptr<ThreadPool> pool;
  if (jobs > 1) pool = std::make_unique<ThreadPool>(jobs);

  const std::vector<std::string> build_list = read_build_list(args);
  std::vector<std::pair<std::string, std::string>> parse_errors;
  std::vector<lang::SourceFile> files = service::parse_sources(
      service::collect_fortran_sources(src_dir.string()), pool.get(),
      &parse_errors);
  std::vector<const lang::Module*> modules;
  const service::BuildListFilter in_build(build_list);
  for (const auto& f : files) {
    for (const auto& m : f.modules) {
      if (in_build.contains(m.name)) modules.push_back(&m);
    }
  }

  // Interprocedural rules are the default; --no-interprocedural restores the
  // blanket-conservative call modelling (and computes no summaries).
  const bool interprocedural = !args.has("no-interprocedural");
  if (!interprocedural && (args.has("summaries-out") || args.has("fpsense-out"))) {
    throw Error(
        "lint: --summaries-out/--fpsense-out need interprocedural mode");
  }
  analysis::PassManager pm = interprocedural
                                 ? analysis::PassManager::default_passes()
                                 : analysis::PassManager::intraprocedural_passes();
  analysis::AnalysisResult result = pm.run(modules);
  result.set_parse_errors(parse_errors);
  const std::vector<analysis::Diagnostic> diags = result.diagnostics();

  std::fputs(analysis::diagnostics_to_text(diags).c_str(), stdout);
  const std::size_t errors = result.count(analysis::Severity::kError);
  const std::size_t warnings = result.count(analysis::Severity::kWarning);
  std::printf("lint: %zu error(s), %zu warning(s) in %zu modules / %zu "
              "subprograms\n",
              errors, warnings, result.modules, result.subprograms);

  if (args.has("json")) {
    write_file(args.get("json"), result.report() + "\n");
    std::printf("wrote JSON diagnostics to %s\n", args.get("json").c_str());
  }
  if (args.has("tsv")) {
    write_file(args.get("tsv"), analysis::diagnostics_to_tsv(diags));
    std::printf("wrote TSV diagnostics to %s\n", args.get("tsv").c_str());
  }
  if (args.has("summaries-out") && result.summaries != nullptr) {
    write_file(args.get("summaries-out"),
               analysis::summaries_to_json(*result.summaries));
    std::printf("wrote mod/ref summaries to %s\n",
                args.get("summaries-out").c_str());
  }
  if (args.has("fpsense-out") && result.summaries != nullptr) {
    const analysis::ProgramSymbols symbols(modules);
    write_file(args.get("fpsense-out"),
               analysis::fpsense_report_json(modules, symbols,
                                             *result.summaries));
    std::printf("wrote FP-sensitivity report to %s\n",
                args.get("fpsense-out").c_str());
  }

  if (fail_on == "error") return errors > 0 ? 1 : 0;
  if (fail_on == "warn") return errors + warnings > 0 ? 1 : 0;
  return 0;
}

// ---------------------------------------------------------------------------
// Shared: load a saved metagraph.
// ---------------------------------------------------------------------------

meta::Metagraph load_graph(const Args& args) {
  const std::string path = args.get("graph");
  if (path.empty()) throw Error("--graph FILE is required");
  std::ifstream in(path, std::ios::binary);  // v2 payloads are binary
  if (!in) throw Error("cannot read " + path);
  return meta::load_metagraph(in);
}

int cmd_info(const Args& args) {
  meta::Metagraph mg = load_graph(args);
  const auto dist = graph::degree_distribution(mg.graph(), 2);
  std::printf("nodes: %zu\nedges: %zu\nmodules: %zu\nI/O labels: %zu\n",
              mg.node_count(), mg.graph().edge_count(), mg.modules().size(),
              mg.io_map().size());
  std::printf("mean degree: %.3f  max degree: %zu  power-law MLE: %.3f\n",
              dist.mean_degree, dist.max_degree, dist.mle_exponent);
  Table table("largest modules by node count");
  table.set_header({"module", "nodes"});
  std::vector<std::pair<std::size_t, std::string>> sizes;
  for (const auto& m : mg.modules()) {
    sizes.emplace_back(mg.by_module(m).size(), m);
  }
  std::sort(sizes.rbegin(), sizes.rend());
  for (std::size_t i = 0; i < sizes.size() && i < 10; ++i) {
    table.add_row({sizes[i].second,
                   Table::integer(static_cast<long long>(sizes[i].first))});
  }
  table.print(std::cout);
  return 0;
}

// ---------------------------------------------------------------------------
// slice
// ---------------------------------------------------------------------------

int cmd_slice(const Args& args) {
  meta::Metagraph mg = load_graph(args);
  std::vector<std::string> targets = args.get_all("target");
  for (const std::string& label : args.get_all("output")) {
    for (const auto& name : slice::internal_names_for_output(mg, label)) {
      targets.push_back(name);
    }
  }
  if (targets.empty()) {
    throw Error("slice: need --target NAME or --output LABEL");
  }
  slice::SliceOptions opts;
  if (args.has("cam-only")) {
    opts.module_filter = [](const std::string& m) {
      return model::is_cam_module(m);
    };
  }
  opts.drop_components_smaller_than =
      static_cast<std::size_t>(args.get_int("drop-small", 0));
  slice::SliceResult result = slice::backward_slice(mg, targets, opts);
  std::printf("criteria:");
  for (const auto& t : targets) std::printf(" %s", t.c_str());
  std::printf("\nslice: %zu nodes / %zu edges (of %zu / %zu)\n",
              result.nodes.size(), result.subgraph.edge_count(),
              mg.node_count(), mg.graph().edge_count());
  const std::size_t show =
      static_cast<std::size_t>(args.get_int("show", 20));
  for (std::size_t i = 0; i < result.nodes.size() && i < show; ++i) {
    const auto& info = mg.info(result.nodes[i]);
    std::printf("  %-28s %s line %d\n", info.unique_name.c_str(),
                info.module.c_str(), info.line);
  }
  if (result.nodes.size() > show) {
    std::printf("  ... %zu more (raise --show)\n", result.nodes.size() - show);
  }
  if (args.has("dot")) {
    std::vector<std::string> labels;
    for (graph::NodeId v : result.nodes) {
      labels.push_back(mg.info(v).unique_name);
    }
    write_file(args.get("dot"), graph::to_dot(result.subgraph, &labels));
    std::printf("wrote DOT to %s\n", args.get("dot").c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// communities
// ---------------------------------------------------------------------------

int cmd_communities(const Args& args) {
  meta::Metagraph mg = load_graph(args);
  const std::string method = args.get("method", "gn");
  const std::size_t min_size =
      static_cast<std::size_t>(args.get_int("min-size", 3));

  std::vector<std::vector<graph::NodeId>> communities;
  if (method == "louvain") {
    graph::LouvainOptions opts;
    opts.min_community_size = min_size;
    auto result = louvain(mg.graph(), opts);
    communities = std::move(result.communities);
    std::printf("louvain: modularity %.4f\n", result.modularity);
  } else if (method == "gn") {
    graph::GirvanNewmanOptions opts;
    opts.iterations = static_cast<int>(args.get_int("iterations", 1));
    opts.min_community_size = min_size;
    // --samples N caps each betweenness pass at N seeded pivot sweeps;
    // 0 (default) keeps the exact computation.
    opts.betweenness_samples =
        static_cast<std::size_t>(args.get_int("samples", 0));
    opts.betweenness_seed =
        static_cast<std::uint64_t>(args.get_int("seed", 2019));
    opts.budget_ms = args.get_int("budget-ms", 0);
    auto result = girvan_newman(mg.graph(), opts);
    communities = std::move(result.communities);
    std::printf("girvan-newman: removed %zu edges, %zu components%s\n",
                result.edges_removed, result.component_count,
                result.budget_exceeded ? " (budget exceeded)" : "");
  } else {
    throw Error("unknown --method '" + method + "' (gn|louvain)");
  }

  std::printf("%zu communities (>= %zu nodes):\n", communities.size(),
              min_size);
  for (std::size_t c = 0; c < communities.size(); ++c) {
    std::printf("  community %zu: %zu nodes, e.g.", c, communities[c].size());
    for (std::size_t k = 0; k < communities[c].size() && k < 5; ++k) {
      std::printf(" %s", mg.info(communities[c][k]).unique_name.c_str());
    }
    std::printf("\n");
  }
  if (args.has("dot")) {
    std::vector<graph::NodeId> classes(mg.node_count(), 0);
    for (std::size_t c = 0; c < communities.size(); ++c) {
      for (graph::NodeId v : communities[c]) {
        classes[v] = static_cast<graph::NodeId>(c + 1);
      }
    }
    std::vector<std::string> labels;
    for (graph::NodeId v = 0; v < mg.node_count(); ++v) {
      labels.push_back(mg.info(v).unique_name);
    }
    write_file(args.get("dot"), graph::to_dot(mg.graph(), &labels, &classes));
    std::printf("wrote DOT to %s\n", args.get("dot").c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// centrality
// ---------------------------------------------------------------------------

int cmd_centrality(const Args& args) {
  meta::Metagraph mg = load_graph(args);
  const std::string kind = args.get("kind", "eigenvector");
  const std::size_t top = static_cast<std::size_t>(args.get_int("top", 15));

  const bool modules = args.has("modules");
  const std::vector<graph::NodeId> module_of =
      modules ? mg.module_classes() : std::vector<graph::NodeId>{};
  const std::optional<graph::NamedScores> ranked = graph::rank_by_kind(
      kind, mg.graph(),
      [&mg](graph::NodeId v) { return mg.info(v).unique_name; },
      modules ? &module_of : nullptr, mg.modules());
  if (!ranked) throw Error("unknown --kind '" + kind + "'");

  Table table(kind + " in-centrality, top " + std::to_string(top));
  table.set_header({"rank", "name", "score"});
  int rank = 1;
  for (graph::NodeId v : graph::top_k(ranked->scores, top)) {
    table.add_row({Table::integer(rank++), ranked->names[v],
                   Table::num(ranked->scores[v], 6)});
  }
  table.print(std::cout);
  return 0;
}

// ---------------------------------------------------------------------------
// analyze
// ---------------------------------------------------------------------------

/// `--experiment` takes a scenario name or the paper's experiment name, the
/// latter case-insensitive with its '-' optional ("rand-mt", "randmt").
const model::ScenarioSpec& analyze_scenario(const std::string& name) {
  if (const model::ScenarioSpec* s = model::find_scenario(name)) return *s;
  auto squash = [](const std::string& id) {
    std::string out = to_lower(id);
    out.erase(std::remove(out.begin(), out.end(), '-'), out.end());
    return out;
  };
  std::vector<std::string> accepted;
  for (const model::ScenarioSpec& s : model::scenario_library()) {
    if (!s.paper_id.empty() && squash(s.paper_id) == squash(name)) return s;
    accepted.push_back(s.name);
    if (!s.paper_id.empty()) accepted.push_back(to_lower(s.paper_id));
  }
  throw Error("unknown --experiment '" + name + "' (accepted: " +
              join(accepted, ", ") + ")");
}

int cmd_analyze(const Args& args) {
  const model::ScenarioSpec& scenario =
      analyze_scenario(args.get("experiment", "goffgratch"));
  const std::string& label =
      scenario.paper_id.empty() ? scenario.name : scenario.paper_id;

  engine::PipelineConfig config;
  config.ensemble_members =
      static_cast<std::size_t>(args.get_int("members", 30));
  config.corpus.seed = static_cast<std::uint64_t>(args.get_int("seed", 2019));
  config.threads = static_cast<std::size_t>(args.get_int("jobs", 0));
  config.prune_dead_stores = args.has("prune-dead-stores");
  engine::Pipeline pipe(std::move(config));
  if (args.has("graph-out")) {
    // The coverage-filtered metagraph as v1 text, for byte comparison with
    // other builds of the same corpus.
    write_file(args.get("graph-out"),
               meta::save_metagraph_to_string(pipe.metagraph()));
  }
  engine::ExperimentOutcome outcome =
      pipe.run_scenario(scenario, args.has("runtime-sampling"));

  std::printf("experiment: %s\nUF-ECT: %s (%zu failing PCs)\n",
              label.c_str(), outcome.verdict.pass ? "PASS" : "FAIL",
              outcome.verdict.failing_pcs.size());
  std::printf("criteria:");
  for (const auto& c : outcome.criteria_outputs) std::printf(" %s", c.c_str());
  std::printf("\nslice: %zu nodes\n", outcome.slice.nodes.size());
  for (std::size_t i = 0; i < outcome.refinement.iterations.size(); ++i) {
    const auto& iter = outcome.refinement.iterations[i];
    std::printf("iteration %zu: %zu nodes, %zu communities, %s\n", i + 1,
                iter.subgraph_nodes, iter.communities.size(),
                iter.detected ? "DETECTED" : "no difference");
  }
  std::printf("final search space: %zu nodes%s\n",
              outcome.refinement.final_nodes.size(),
              outcome.refinement.stalled ? " (stalled)" : "");
  bool retained = false;
  for (graph::NodeId b : outcome.bug_nodes) {
    for (graph::NodeId n : outcome.refinement.final_nodes) {
      if (n == b) retained = true;
    }
  }
  std::printf("ground-truth bug retained: %s\n", retained ? "yes" : "NO");

  if (args.has("json")) {
    // Machine-readable report for downstream tooling / CI.
    JsonWriter w;
    w.begin_object();
    w.key("experiment");
    w.string_value(label);
    w.key("ect_pass");
    w.boolean(outcome.verdict.pass);
    w.key("failing_pcs");
    w.integer(static_cast<long long>(outcome.verdict.failing_pcs.size()));
    w.key("criteria");
    w.begin_array();
    for (const auto& c : outcome.criteria_outputs) w.string_value(c);
    w.end_array();
    w.key("internal_names");
    w.begin_array();
    for (const auto& c : outcome.internal_names) w.string_value(c);
    w.end_array();
    w.key("slice_nodes");
    w.integer(static_cast<long long>(outcome.slice.nodes.size()));
    w.key("iterations");
    w.begin_array();
    for (const auto& iter : outcome.refinement.iterations) {
      w.begin_object();
      w.key("subgraph_nodes");
      w.integer(static_cast<long long>(iter.subgraph_nodes));
      w.key("communities");
      w.integer(static_cast<long long>(iter.communities.size()));
      w.key("detected");
      w.boolean(iter.detected);
      w.key("sampled");
      w.begin_array();
      for (const auto& comm : iter.communities) {
        for (graph::NodeId v : comm.sampled) {
          w.string_value(pipe.metagraph().info(v).unique_name);
        }
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    w.key("final_nodes");
    w.integer(static_cast<long long>(outcome.refinement.final_nodes.size()));
    w.key("stalled");
    w.boolean(outcome.refinement.stalled);
    w.key("bug_retained");
    w.boolean(retained);
    w.end_object();
    write_file(args.get("json"), w.str() + "\n");
    std::printf("wrote JSON report to %s\n", args.get("json").c_str());
  }
  return retained ? 0 : 1;
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

int cmd_serve(const Args& args) {
  // The daemon always runs with the metrics registry on: /v1/metrics is part
  // of its contract, unlike one-shot subcommands where observability is
  // opt-in via --metrics-out/--trace.
  obs::global().set_enabled(true);

  const std::size_t jobs = static_cast<std::size_t>(args.get_int("jobs", 0));
  std::unique_ptr<ThreadPool> build_pool;
  if (jobs > 1) build_pool = std::make_unique<ThreadPool>(jobs);

  service::SessionStoreOptions store_opts;
  store_opts.snapshot_dir = args.get("snapshot");
  store_opts.build_pool = build_pool.get();
  if (args.has("session-bytes")) {
    store_opts.max_bytes =
        static_cast<std::size_t>(args.get_int("session-bytes", 0));
  }
  service::SessionStore store(store_opts);

  // Requests execute on their own pool, distinct from the build pool — a
  // request blocking on parallel_for of its own pool would deadlock.
  const std::size_t request_threads =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   args.get_int("request-threads", 4)));
  ThreadPool request_pool(request_threads);

  service::RouterOptions router_opts;
  router_opts.pool = &request_pool;
  router_opts.max_in_flight =
      static_cast<std::size_t>(args.get_int("max-in-flight", 64));
  router_opts.default_deadline_ms = args.get_int("deadline-ms", 30000);
  router_opts.generation = args.get_int("generation", 0);
  router_opts.stable_health = args.has("stable-health");
  service::Router router(&store, router_opts);

  // Refinement campaigns: long-lived server-side runs behind /v1/refine*.
  campaign::CampaignManagerOptions campaign_opts;
  campaign_opts.max_running =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   args.get_int("campaigns", 8)));
  campaign_opts.engine_threads =
      static_cast<std::size_t>(args.get_int("campaign-threads", 2));
  if (!store_opts.snapshot_dir.empty()) {
    // Crash durability piggybacks on the snapshot dir: campaign journals
    // live next to the graphs their resumed runs warm-start from.
    campaign_opts.journal_dir =
        (fs::path(store_opts.snapshot_dir) / "campaigns").string();
  }
  campaign::CampaignManager campaigns(&store, campaign_opts);
  campaigns.install_routes(router);

  service::HttpServerOptions http_opts;
  http_opts.port = static_cast<std::uint16_t>(args.get_int("port", 0));
  service::HttpServer server(&router, http_opts);
  server.start();
  if (args.has("port-file")) {
    // Atomic (temp + rename): the fleet supervisor polls this file and must
    // never observe a torn write.
    atomic_write_file(args.get("port-file"),
                      std::to_string(server.port()) + "\n");
  }
  std::printf("rca-serve listening on 127.0.0.1:%u (build %s)\n",
              static_cast<unsigned>(server.port()),
              service::build_id().c_str());
  std::fflush(stdout);  // port announcements must not sit in a pipe buffer

  // Resume any campaign whose journal survived a crash — after the port
  // handshake (the supervisor should not wait on re-execution) but before
  // serving; /v1/health reports "warming" while it runs.
  if (!campaign_opts.journal_dir.empty()) {
    router.set_warming(true);
    const std::size_t resumed = campaigns.resume_unfinished(router);
    router.set_warming(false);
    if (resumed > 0) {
      std::printf("rca-serve: resumed %zu journaled campaign(s)\n", resumed);
      std::fflush(stdout);
    }
  }

  service::HttpServer::install_signal_handlers(server);
  const int rc = server.serve_forever();
  std::printf("rca-serve: drained %zu sessions resident, exiting\n",
              store.session_count());
  return rc;
}

// ---------------------------------------------------------------------------
// fleet
// ---------------------------------------------------------------------------

int cmd_fleet(const Args& args) {
  obs::global().set_enabled(true);

  fleet::WorkerSpec spec;
  spec.binary = args.get("worker-binary", "/proc/self/exe");
  spec.run_dir = args.get("run-dir", "fleet-run");
  // Every worker shares the read-only snapshot dir — that is what makes a
  // respawn a warm start — plus the usual serve tuning flags.
  const std::string snapshot = args.get("snapshot");
  if (!snapshot.empty()) {
    spec.extra_args.push_back("--snapshot");
    spec.extra_args.push_back(snapshot);
  }
  for (const char* flag :
       {"jobs", "request-threads", "max-in-flight", "deadline-ms",
        "session-bytes", "campaigns", "campaign-threads"}) {
    if (args.has(flag)) {
      spec.extra_args.push_back(std::string("--") + flag);
      spec.extra_args.push_back(args.get(flag));
    }
  }
  if (args.has("stable-health")) spec.extra_args.push_back("--stable-health");

  fleet::SupervisorOptions sopts;
  sopts.workers = std::max<std::size_t>(
      1, static_cast<std::size_t>(args.get_int("workers", 4)));
  sopts.spawn_deadline_ms = args.get_int("spawn-deadline-ms", 20000);
  sopts.probe_interval_ms = args.get_int("probe-interval-ms", 250);
  sopts.probe_timeout_ms =
      static_cast<int>(args.get_int("probe-timeout-ms", 2000));
  sopts.probe_failures_to_kill =
      static_cast<int>(args.get_int("probe-strikes", 2));
  sopts.restart_backoff_initial_ms = args.get_int("backoff-initial-ms", 50);
  sopts.restart_backoff_cap_ms = args.get_int("backoff-cap-ms", 2000);

  fleet::Supervisor supervisor(std::move(spec), sopts);
  supervisor.start();

  fleet::GatewayOptions gopts;
  gopts.max_attempts = static_cast<int>(args.get_int("retry-attempts", 10));
  gopts.retry_base_ms = args.get_int("retry-base-ms", 25);
  gopts.retry_cap_ms = args.get_int("retry-cap-ms", 500);
  fleet::Gateway gateway(&supervisor, gopts);

  service::HttpServerOptions http_opts;
  http_opts.port = static_cast<std::uint16_t>(args.get_int("port", 0));
  // Proxied requests can sleep through worker respawns; give the gateway
  // threads headroom over a single worker's default.
  http_opts.connection_threads = std::max<std::size_t>(
      8, static_cast<std::size_t>(args.get_int("gateway-threads", 16)));
  service::HttpServer server(
      service::HttpServer::Handler(
          [&gateway](const service::Request& req) {
            return gateway.handle(req);
          }),
      http_opts);
  server.start();
  if (args.has("port-file")) {
    atomic_write_file(args.get("port-file"),
                      std::to_string(server.port()) + "\n");
  }
  std::printf(
      "rca-fleet gateway on 127.0.0.1:%u, %zu worker shard(s) (build %s)\n",
      static_cast<unsigned>(server.port()), supervisor.workers(),
      service::build_id().c_str());
  std::fflush(stdout);

  service::HttpServer::install_signal_handlers(server);
  const int rc = server.serve_forever();
  supervisor.shutdown();
  std::printf("rca-fleet: workers reaped, exiting\n");
  return rc;
}

// ---------------------------------------------------------------------------
// refine / score
// ---------------------------------------------------------------------------

/// Builds a /v1/refine-shaped body from the CLI flags, so the in-process
/// campaign goes through exactly the code path the service endpoint uses.
JsonValue refine_body_from_args(const Args& args) {
  std::vector<std::pair<std::string, JsonValue>> members;
  auto add_string = [&members](const char* key, const std::string& v) {
    members.emplace_back(key, JsonValue::make_string(v));
  };
  auto add_strings = [&members](const char* key,
                                const std::vector<std::string>& vs) {
    if (vs.empty()) return;
    std::vector<JsonValue> items;
    for (const std::string& v : vs) items.push_back(JsonValue::make_string(v));
    members.emplace_back(key, JsonValue::make_array(std::move(items)));
  };
  auto add_int = [&members, &args](const char* key, const char* flag,
                                   long long fallback) {
    members.emplace_back(
        key, JsonValue::make_number(
                 static_cast<double>(args.get_int(flag, fallback))));
  };
  if (args.has("scenario")) add_string("scenario", args.get("scenario"));
  if (args.has("src")) add_string("src", args.get("src"));
  add_strings("bug", args.get_all("bug"));
  add_strings("targets", args.get_all("target"));
  add_strings("outputs", args.get_all("output"));
  if (args.has("runtime")) {
    members.emplace_back("runtime", JsonValue::make_bool(true));
  }
  if (args.has("cam-only")) {
    members.emplace_back("cam_only", JsonValue::make_bool(true));
  }
  if (args.has("drop-small")) add_int("drop_small", "drop-small", 0);
  add_int("seed", "seed", 2019);
  add_int("top", "top", 15);
  add_int("max_iterations", "max-iterations", 8);
  add_int("samples", "samples", 10);
  add_int("min_size", "min-size", 4);
  add_int("small_enough", "small-enough", 10);
  add_string("method", args.get("method", "gn"));
  return JsonValue::make_object(std::move(members));
}

int cmd_refine(const Args& args) {
  if (!args.has("scenario") && !args.has("src")) {
    throw Error("refine needs --scenario NAME or --src DIR");
  }
  const std::size_t jobs = static_cast<std::size_t>(args.get_int("jobs", 0));
  std::unique_ptr<ThreadPool> build_pool;
  if (jobs > 1) build_pool = std::make_unique<ThreadPool>(jobs);

  service::SessionStoreOptions store_opts;
  store_opts.snapshot_dir = args.get("snapshot");
  store_opts.build_pool = build_pool.get();
  service::SessionStore store(store_opts);
  service::RouterOptions router_opts;  // inline execution; no HTTP here
  service::Router router(&store, router_opts);

  campaign::CampaignManagerOptions manager_opts;
  manager_opts.max_running = 1;
  manager_opts.engine_threads = std::max<std::size_t>(1, jobs);
  campaign::CampaignManager manager(&store, manager_opts);

  const JsonValue body = refine_body_from_args(args);
  std::shared_ptr<const service::Session> session;
  campaign::CampaignParams params =
      campaign::parse_campaign_request(body, router, &session);
  if (session != nullptr) {
    std::printf("refine: session %.12s.. (%zu nodes)\n",
                session->key().c_str(), session->metagraph().node_count());
    std::fflush(stdout);
  }
  const std::string id = manager.start(std::move(params), std::move(session));
  const campaign::CampaignState state = manager.wait(id);
  const std::string result = manager.result_json(id);
  std::fputs(result.c_str(), stdout);
  if (args.has("json")) write_file(args.get("json"), result);
  return state == campaign::CampaignState::kDone ? 0 : 1;
}

int cmd_score(const Args& args) {
  campaign::ScoreOptions opts;
  opts.top_m = static_cast<std::size_t>(args.get_int("top", 15));
  opts.runtime_sampling = args.has("runtime");
  opts.only = args.get_all("scenario");
  opts.pipeline.ensemble_members =
      static_cast<std::size_t>(args.get_int("members", 40));
  opts.pipeline.threads = static_cast<std::size_t>(args.get_int("jobs", 0));
  opts.pipeline.refinement.rank_differences_on_stall = true;

  const campaign::Scoreboard board = campaign::score_scenarios(opts);
  campaign::print_scoreboard(board);
  if (args.has("json")) {
    write_file(args.get("json"), campaign::scoreboard_json(board));
    std::printf("wrote scoreboard to %s\n", args.get("json").c_str());
  }
  return board.scores.empty() ? 1 : 0;
}

// ---------------------------------------------------------------------------
// watch
// ---------------------------------------------------------------------------

int cmd_watch(const Args& args) {
  const std::string src_dir = args.get("src");
  if (src_dir.empty()) throw Error("watch needs --src DIR");
  const long long interval_ms = args.get_int("interval-ms", 500);
  const long long iterations = args.get_int("iterations", 0);  // 0 = forever
  const std::size_t jobs = static_cast<std::size_t>(args.get_int("jobs", 0));
  std::unique_ptr<ThreadPool> pool;
  if (jobs > 1) pool = std::make_unique<ThreadPool>(jobs);

  service::SessionStoreOptions store_opts;
  store_opts.snapshot_dir = args.get("snapshot");
  store_opts.build_pool = pool.get();
  service::SessionStore store(store_opts);

  service::SessionConfig config;
  config.build_list = read_build_list(args);
  config.prune_dead_stores = args.has("prune-dead-stores");

  // Baseline: one cold (or snapshot-warm) build plus the mtime of every
  // source file. Each tick stats the tree and reads only files whose mtime
  // moved — the stat sweep is the cheap pre-filter, the patch is the
  // incremental rebuild.
  std::unordered_map<std::string, fs::file_time_type> mtimes;
  for (const std::string& p : service::collect_fortran_paths(src_dir)) {
    std::error_code ec;
    const auto t = fs::last_write_time(p, ec);
    if (!ec) mtimes[p] = t;
  }
  std::shared_ptr<const service::Session> session =
      store.get_or_build(config, service::collect_fortran_sources(src_dir));
  std::string key = session->key();
  // Paths the *session* currently holds. The mtime baseline can drift ahead
  // of it after a rollback (e.g. a broken file appeared and vanished without
  // ever being committed) — removes must be validated against the session,
  // not the baseline.
  std::unordered_set<std::string> session_paths;
  for (const auto& e : session->sources()) session_paths.insert(e.first);
  std::printf("watch: session %.12s.. (%zu nodes, %zu edges) over %s\n",
              key.c_str(), session->metagraph().node_count(),
              session->metagraph().graph().edge_count(), src_dir.c_str());
  std::fflush(stdout);

  for (long long tick = 0; iterations == 0 || tick < iterations; ++tick) {
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    service::SessionStore::PatchEdit edit;
    std::unordered_map<std::string, fs::file_time_type> now;
    for (const std::string& p : service::collect_fortran_paths(src_dir)) {
      std::error_code ec;
      const auto t = fs::last_write_time(p, ec);
      if (ec) continue;  // raced a delete; next tick sees the removal
      now[p] = t;
      auto it = mtimes.find(p);
      if (it != mtimes.end() && it->second == t) continue;
      edit.upserts.emplace_back(p, read_file(p));
    }
    for (const auto& [p, t] : mtimes) {
      (void)t;
      if (now.find(p) == now.end() && session_paths.count(p) != 0) {
        edit.removes.push_back(p);
      }
    }
    std::sort(edit.removes.begin(), edit.removes.end());
    mtimes = std::move(now);
    if (edit.upserts.empty() && edit.removes.empty()) continue;

    service::SessionStore::PatchResult result = store.patch(key, edit);
    if (result.rolled_back) {
      std::printf("watch: rolled back, session %.12s.. unchanged (%zu parse "
                  "error(s))\n", key.c_str(), result.errors.size());
      for (const auto& [path, message] : result.errors) {
        std::fprintf(stderr, "  %s: %s\n", path.c_str(), message.c_str());
      }
    } else if (result.resident_hit) {
      std::printf("watch: content unchanged (mtime-only touch)\n");
    } else {
      key = result.session->key();
      session_paths.clear();
      for (const auto& e : result.session->sources()) {
        session_paths.insert(e.first);
      }
      std::printf("watch: gen %llu session %.12s.. rebuilt=%zu reused=%zu "
                  "spliced=%zu%s\n",
                  static_cast<unsigned long long>(result.session->generation()),
                  key.c_str(), result.rebuilt_modules, result.reused_fragments,
                  result.spliced_nodes,
                  result.full_rewalk ? " (full re-walk)" : "");
    }
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Args args(argc, argv);
    if (args.has("version")) {
      // Same build id /v1/health reports, so a client can match a daemon to
      // the binary that spawned it.
      std::printf("rca-tool %s\n", service::build_id().c_str());
      return 0;
    }
    // Observability: --metrics-out FILE and/or --trace turn the global
    // metrics sink on for any subcommand.
    const bool want_metrics = args.has("metrics-out");
    const bool want_trace = args.has("trace");
    const std::string metrics_path = args.get("metrics-out");
    if (want_metrics && metrics_path.empty()) {
      throw Error("--metrics-out needs a file path");
    }
    if (want_metrics || want_trace) obs::global().set_enabled(true);

    // Fault injection: --fault-spec wins over the RCA_FAULTS environment
    // variable (CI arms whole smoke runs through the env without touching
    // each command line). Disarmed costs one predicted branch per site.
    std::string fault_spec = args.get("fault-spec");
    if (fault_spec.empty()) {
      if (const char* env = std::getenv("RCA_FAULTS")) fault_spec = env;
    }
    if (!fault_spec.empty()) {
      fault::FaultRegistry::global().arm(fault_spec);
      std::fprintf(stderr, "rca: fault injection armed: %s\n",
                   fault_spec.c_str());
    }

    int rc;
    if (args.command() == "generate") rc = cmd_generate(args);
    else if (args.command() == "graph") rc = cmd_graph(args);
    else if (args.command() == "lint") rc = cmd_lint(args);
    else if (args.command() == "info") rc = cmd_info(args);
    else if (args.command() == "slice") rc = cmd_slice(args);
    else if (args.command() == "communities") rc = cmd_communities(args);
    else if (args.command() == "centrality") rc = cmd_centrality(args);
    else if (args.command() == "analyze") rc = cmd_analyze(args);
    else if (args.command() == "serve") rc = cmd_serve(args);
    else if (args.command() == "fleet") rc = cmd_fleet(args);
    else if (args.command() == "refine") rc = cmd_refine(args);
    else if (args.command() == "score") rc = cmd_score(args);
    else if (args.command() == "watch") rc = cmd_watch(args);
    else return usage();
    for (const auto& key : args.unused_keys()) {
      std::fprintf(stderr, "warning: unused option --%s\n", key.c_str());
    }
    if (want_metrics) {
      write_file(metrics_path, obs::global().to_json() + "\n");
      std::printf("wrote metrics to %s\n", metrics_path.c_str());
    }
    if (want_trace) {
      std::ostringstream trace;
      obs::global().write_trace(trace);
      std::fputs(trace.str().c_str(), stderr);
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  } catch (const service::HandlerError& e) {  // a rejected `refine` request
    std::fprintf(stderr, "error: %s\n", e.message.c_str());
    return 1;
  }
}
