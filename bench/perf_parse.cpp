// google-benchmark microbenchmarks for the frontend and pipeline stages:
// lexing, parsing, metagraph construction, model execution throughput, and
// the snapshot formats on the synthetic corpus. The *Parallel benchmarks
// take the worker count as their argument; the acceptance target is >=2x
// front-end speedup at 8 workers on an 8-core host.
//
// `perf_parse --warm-edit-gate [--json FILE] [--quick]` bypasses
// google-benchmark and runs the incremental-session acceptance gate instead:
// at cesm scale, a warm single-module touch edit through
// SessionStore::patch() must be >= 10x faster than a cold from-scratch
// build. It also times warm_body_patch_cesm, a one-edge body edit that must
// take the relink path (the base generation's node table is kept, only the
// edges are rebuilt), and warm_relint_cesm: a patch plus a /v1/lint through
// the Router, on a patched session whose base was linted. The JSON output
// follows the rca.bench_graph.v1 trajectory schema (median_ms +
// runner-normalized values, gates.pass) so the same tools/bench_diff.cmake
// diffs BENCH_parse.json in CI.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "lang/lexer.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "meta/builder.hpp"
#include "meta/serialize.hpp"
#include "model/corpus.hpp"
#include "model/model.hpp"
#include "service/router.hpp"
#include "service/session_store.hpp"
#include "stats/descriptive.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"

namespace rca {
namespace {

const model::GeneratedCorpus& corpus() {
  static const model::GeneratedCorpus* c =
      new model::GeneratedCorpus(model::generate_corpus(model::CorpusSpec{}));
  return *c;
}

std::size_t total_bytes() {
  std::size_t bytes = 0;
  for (const auto& f : corpus().files) bytes += f.text.size();
  return bytes;
}

void BM_LexCorpus(benchmark::State& state) {
  for (auto _ : state) {
    std::size_t tokens = 0;
    for (const auto& f : corpus().files) {
      lang::Lexer lexer(f.path, f.text);
      tokens += lexer.lex_all().size();
    }
    benchmark::DoNotOptimize(tokens);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total_bytes()));
}
BENCHMARK(BM_LexCorpus);

void BM_ParseCorpus(benchmark::State& state) {
  for (auto _ : state) {
    std::size_t modules = 0;
    for (const auto& f : corpus().files) {
      lang::Parser parser(f.path, f.text);
      modules += parser.parse_file().modules.size();
    }
    benchmark::DoNotOptimize(modules);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total_bytes()));
}
BENCHMARK(BM_ParseCorpus);

void BM_PrintRoundTrip(benchmark::State& state) {
  lang::Parser parser(corpus().files[6].path, corpus().files[6].text);
  lang::SourceFile file = parser.parse_file();
  for (auto _ : state) {
    benchmark::DoNotOptimize(lang::print_source_file(file));
  }
}
BENCHMARK(BM_PrintRoundTrip);

void BM_BuildMetagraph(benchmark::State& state) {
  model::CesmModel model(model::CorpusSpec{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        meta::build_metagraph(model.compiled_modules()));
  }
}
BENCHMARK(BM_BuildMetagraph);

// Same parse work as BM_ParseCorpus, spread over a worker pool with
// file-order slots — the scheme the model and the CLI use. Real time, not
// CPU time: the main thread mostly waits on the pool.
void BM_ParseCorpusParallel(benchmark::State& state) {
  const auto& files = corpus().files;
  const auto jobs = static_cast<std::size_t>(state.range(0));
  std::optional<ThreadPool> pool;
  if (jobs > 1) pool.emplace(jobs);
  for (auto _ : state) {
    std::vector<std::optional<lang::SourceFile>> slots(files.size());
    auto parse_one = [&files, &slots](std::size_t i) {
      lang::Parser parser(files[i].path, files[i].text);
      slots[i] = parser.parse_file();
    };
    if (pool) {
      pool->parallel_for(files.size(), parse_one);
    } else {
      for (std::size_t i = 0; i < files.size(); ++i) parse_one(i);
    }
    benchmark::DoNotOptimize(slots);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(total_bytes()));
}
BENCHMARK(BM_ParseCorpusParallel)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_BuildMetagraphParallel(benchmark::State& state) {
  static model::CesmModel* model = new model::CesmModel(model::CorpusSpec{});
  const auto jobs = static_cast<std::size_t>(state.range(0));
  std::optional<ThreadPool> pool;
  if (jobs > 1) pool.emplace(jobs);
  meta::BuilderOptions opts;
  opts.pool = pool ? &*pool : nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        meta::build_metagraph(model->compiled_modules(), opts));
  }
}
BENCHMARK(BM_BuildMetagraphParallel)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

const meta::Metagraph& bench_metagraph() {
  static const meta::Metagraph* mg = [] {
    static model::CesmModel model{model::CorpusSpec{}};
    return new meta::Metagraph(meta::build_metagraph(model.compiled_modules()));
  }();
  return *mg;
}

void BM_SnapshotSave(benchmark::State& state) {
  const auto format = state.range(0) == 2 ? meta::SnapshotFormat::kV2Binary
                                          : meta::SnapshotFormat::kV1Text;
  std::size_t bytes = 0;
  for (auto _ : state) {
    std::string s = meta::save_metagraph_to_string(bench_metagraph(), format);
    bytes = s.size();
    benchmark::DoNotOptimize(s);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SnapshotSave)->Arg(1)->Arg(2);

// Loading a snapshot is the warm-cache replacement for parse+build; compare
// against BM_ParseCorpus + BM_BuildMetagraph for the cache win.
void BM_SnapshotLoad(benchmark::State& state) {
  const auto format = state.range(0) == 2 ? meta::SnapshotFormat::kV2Binary
                                          : meta::SnapshotFormat::kV1Text;
  const std::string bytes =
      meta::save_metagraph_to_string(bench_metagraph(), format);
  for (auto _ : state) {
    benchmark::DoNotOptimize(meta::load_metagraph_from_string(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_SnapshotLoad)->Arg(1)->Arg(2);

void BM_ModelNineSteps(benchmark::State& state) {
  model::CesmModel model(model::CorpusSpec{});
  model::RunConfig config;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    config.member_seed = seed++;
    benchmark::DoNotOptimize(model.run(config));
  }
}
BENCHMARK(BM_ModelNineSteps);

void BM_CoverageRun(benchmark::State& state) {
  model::CesmModel model(model::CorpusSpec{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.coverage_run(2));
  }
}
BENCHMARK(BM_CoverageRun);

// ---------------------------------------------------------------------------
// Warm-edit gate (incremental sessions)
// ---------------------------------------------------------------------------

/// Appends a unique trailing comment to the first line of one module: the
/// session key and the module's bytes change, but no line shifts, so the
/// transaction re-walks exactly one module and splices the rest.
void touch_first_line(std::string* text, int step) {
  const std::size_t eol = text->find('\n');
  text->insert(eol == std::string::npos ? text->size() : eol,
               " ! probe" + std::to_string(step));
}

/// Appends `+ wrkJ * c` to the last assignment of the module's work chain
/// (`wrkK = ...`, J < K): a body edit that adds one edge between variables
/// the module already names, so the patch relinks instead of replaying.
void add_wrk_term(std::string* text, int step) {
  int k = 1;
  while (text->find(" wrk" + std::to_string(k + 1) + " = ") !=
         std::string::npos) {
    ++k;
  }
  const std::size_t at = text->find(" wrk" + std::to_string(k) + " = ");
  text->insert(text->find('\n', at),
               " + wrk" + std::to_string(step % k) + " * 0." +
                   std::to_string(101 + step));
}

constexpr double kMinWarmSpeedup = 10.0;

int run_warm_edit_gate(const std::string& json_path, bool quick) {
  using service::SessionConfig;
  using service::SessionStore;
  using service::SessionStoreOptions;

  const int cold_repeats = quick ? 1 : 3;
  const int warm_repeats = quick ? 3 : 7;

  std::printf("calibrating...\n");
  const double calib = bench::calibration_ms();
  std::printf("  calibration workload: %.2f ms\n", calib);

  std::printf("generating cesm-scale corpus...\n");
  model::GeneratedCorpus corpus =
      model::generate_corpus(model::cesm_scale_spec());
  std::vector<std::pair<std::string, std::string>> sources;
  sources.reserve(corpus.files.size());
  for (auto& f : corpus.files) sources.emplace_back(f.path, std::move(f.text));
  std::sort(sources.begin(), sources.end());
  std::printf("  %zu files, %zu modules\n", sources.size(),
              corpus.total_modules);

  ThreadPool pool(8);
  const SessionConfig config;

  // Cold: from-scratch session build (parse whole corpus + full walk),
  // fresh store each repetition so nothing is resident.
  std::vector<double> cold_times;
  std::size_t nodes = 0, edges = 0;
  for (int r = 0; r < cold_repeats; ++r) {
    SessionStoreOptions opts;
    opts.build_pool = &pool;
    SessionStore store(opts);
    cold_times.push_back(bench::time_ms([&] {
      auto s = store.get_or_build(config, sources);
      nodes = s->metagraph().node_count();
      edges = s->metagraph().graph().edge_count();
    }));
  }
  const double cold_ms = stats::median(cold_times);
  std::printf("kernels:\n");
  std::printf("  %-34s %10.2f ms (median of %d, %zu nodes %zu edges)\n",
              "cold_build_cesm", cold_ms, cold_repeats, nodes, edges);

  // Warm: chained single-module touch edits through patch(); each edit
  // re-parses one file and replays every other module's fragment.
  SessionStoreOptions opts;
  opts.build_pool = &pool;
  SessionStore store(opts);
  std::string key = store.get_or_build(config, sources)->key();
  const std::size_t victim = sources.size() / 2;
  std::vector<double> warm_times;
  for (int r = 0; r < warm_repeats; ++r) {
    touch_first_line(&sources[victim].second, r);
    SessionStore::PatchEdit edit;
    edit.upserts.emplace_back(sources[victim].first, sources[victim].second);
    SessionStore::PatchResult result;
    warm_times.push_back(
        bench::time_ms([&] { result = store.patch(key, edit); }));
    if (result.rolled_back || result.full_rewalk ||
        result.rebuilt_modules != 1) {
      std::fprintf(stderr,
                   "warm edit did not take the incremental path "
                   "(rolled_back=%d full_rewalk=%d rebuilt=%zu)\n",
                   result.rolled_back, result.full_rewalk,
                   result.rebuilt_modules);
      return 1;
    }
    key = result.session->key();
  }
  const double warm_ms = stats::median(warm_times);
  std::printf("  %-34s %10.2f ms (median of %d)\n", "warm_patch_cesm", warm_ms,
              warm_repeats);

  // Warm body edit: chained one-edge edits of one work-chain module. Every
  // patch must re-walk that module alone and relink over the base's nodes.
  std::size_t body_victim = victim;
  while (sources[body_victim].second.find(" wrk1 = ") == std::string::npos) {
    body_victim = (body_victim + 1) % sources.size();
  }
  std::vector<double> body_times;
  for (int r = 0; r < warm_repeats; ++r) {
    add_wrk_term(&sources[body_victim].second, r);
    SessionStore::PatchEdit edit;
    edit.upserts.emplace_back(sources[body_victim].first,
                              sources[body_victim].second);
    SessionStore::PatchResult result;
    body_times.push_back(
        bench::time_ms([&] { result = store.patch(key, edit); }));
    if (result.rolled_back || result.rebuilt_modules != 1 ||
        result.splice != meta::Splice::kRelink) {
      std::fprintf(stderr,
                   "warm body edit did not take the relink path "
                   "(rolled_back=%d full_rewalk=%d rebuilt=%zu)\n",
                   result.rolled_back, result.full_rewalk,
                   result.rebuilt_modules);
      return 1;
    }
    key = result.session->key();
  }
  const double body_ms = stats::median(body_times);
  std::printf("  %-34s %10.2f ms (median of %d)\n", "warm_body_patch_cesm",
              body_ms, warm_repeats);

  // Warm relint: the same chained touch edits, each a /v1/session/patch
  // plus a /v1/lint of the new session through the Router, so the lint is
  // seeded from the previous generation's (already rendered) report.
  SessionStore lint_store(opts);
  service::Router router(&lint_store, service::RouterOptions{});
  auto session_body = [](const std::string& k) {
    return "{\"session\": \"" + k + "\"}";
  };
  key = lint_store.get_or_build(config, sources)->key();
  if (router.handle({"POST", "/v1/lint", session_body(key)}).status != 200) {
    std::fprintf(stderr, "cold /v1/lint failed\n");
    return 1;
  }
  std::vector<double> relint_times;
  for (int r = 0; r < warm_repeats; ++r) {
    touch_first_line(&sources[victim].second, warm_repeats + r);
    JsonWriter body;
    body.begin_object();
    body.key("session");
    body.string_value(key);
    body.key("modules");
    body.begin_array();
    body.begin_object();
    body.key("path");
    body.string_value(sources[victim].first);
    body.key("src");
    body.string_value(sources[victim].second);
    body.end_object();
    body.end_array();
    body.end_object();
    const std::string patch_body = std::move(body).str();
    service::Response patched;
    service::Response linted;
    relint_times.push_back(bench::time_ms([&] {
      patched = router.handle({"POST", "/v1/session/patch", patch_body});
      if (patched.status != 200) return;
      key = parse_json(patched.body).get_string("session");
      linted = router.handle({"POST", "/v1/lint", session_body(key)});
    }));
    if (patched.status != 200 || linted.status != 200) {
      std::fprintf(stderr, "warm relint failed (patch %d, lint %d)\n",
                   patched.status, linted.status);
      return 1;
    }
  }
  const double relint_ms = stats::median(relint_times);
  std::printf("  %-34s %10.2f ms (median of %d)\n", "warm_relint_cesm",
              relint_ms, warm_repeats);

  const double speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;
  const bool pass = speedup >= kMinWarmSpeedup;
  std::printf("gates:\n");
  std::printf("  warm speedup %.1fx (need >= %.1fx) %s\n", speedup,
              kMinWarmSpeedup, pass ? "PASS" : "FAIL");

  if (!json_path.empty()) {
    JsonWriter w;
    w.begin_object();
    w.key("schema");
    w.string_value("rca.bench_graph.v1");
    w.key("calibration_ms");
    w.number(calib);
    w.key("fixtures");
    w.begin_object();
    w.key("cesm");
    w.begin_object();
    w.key("nodes");
    w.integer(static_cast<long long>(nodes));
    w.key("edges");
    w.integer(static_cast<long long>(edges));
    w.end_object();
    w.end_object();
    w.key("kernels");
    w.begin_object();
    for (const auto& k :
         {std::make_pair("cold_build_cesm", cold_ms),
          std::make_pair("warm_patch_cesm", warm_ms),
          std::make_pair("warm_body_patch_cesm", body_ms),
          std::make_pair("warm_relint_cesm", relint_ms)}) {
      w.key(k.first);
      w.begin_object();
      w.key("median_ms");
      w.number(k.second);
      w.key("normalized");
      w.number(calib > 0.0 ? k.second / calib : 0.0);
      w.end_object();
    }
    w.end_object();
    w.key("gates");
    w.begin_object();
    w.key("warm_speedup");
    w.number(speedup);
    w.key("pass");
    w.boolean(pass);
    w.end_object();
    w.end_object();
    std::ofstream out(json_path);
    out << w.str() << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace rca

int main(int argc, char** argv) {
  bool warm_gate = false;
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--warm-edit-gate") == 0) warm_gate = true;
  }
  if (warm_gate) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--warm-edit-gate") continue;
      if (arg == "--quick") {
        quick = true;
      } else if (arg == "--json" && i + 1 < argc) {
        json_path = argv[++i];
      } else {
        std::fprintf(stderr,
                     "usage: perf_parse --warm-edit-gate [--json FILE] "
                     "[--quick]\n");
        return 2;
      }
    }
    return rca::run_warm_edit_gate(json_path, quick);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
