// Traced driver: per-layer attribution for one workload, measured from
// outside by timing calls into each layer's public functions. Spans are the
// benchmark's own, kept in memory and reduced when the run ends.
//
//   perfbench_layers --workload scenario-library|cesm-session|serve-mixed
//                    --seed N --seconds S --work-dir DIR [--rca-tool PATH]
//
// Self time: at every instant of the traced run, the deepest open span owns
// the time (parallel spans of one name count once), so the per-layer self
// times plus the root's own share ("gap": benchmark glue) add up to the
// traced wall time exactly. The run fails its check when the gap exceeds 5%.
//
// Method per workload:
//   scenario-library  stage-by-stage replay of Pipeline construction and
//                     Pipeline::run_scenario through the layer entry points,
//                     with a timing decorator around engine::Sampler; its
//                     scoreboard must equal Pipeline::run_scenario's.
//   cesm-session      the same seeded rounds twice: once as direct layer calls
//                     (SessionStore::patch, slice, centrality, communities,
//                     Session::lint), once through service::Router.
//   serve-mixed       an HTTP phase of a fixed request count against the
//                     daemon, then in-process Router replays of its log.
#include <map>
#include <optional>
#include <set>

#include "cov/coverage_filter.hpp"
#include "ect/ect.hpp"
#include "engine/refinement.hpp"
#include "graph/girvan_newman.hpp"
#include "graph/louvain.hpp"
#include "meta/builder.hpp"
#include "meta/transaction.hpp"
#include "obs/obs.hpp"
#include "service/front_end.hpp"
#include "slice/slicer.hpp"
#include "stats/selection.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr double kMaxGapPct = 5.0;
/// serve-mixed: requests sent over HTTP, then replayed in process.
constexpr std::size_t kTraceRequests = 4000;

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

class Tracer {
 public:
  struct Span {
    std::string name;
    Clock::time_point t0, t1;
    int depth = 0;
  };

  void record(const std::string& name, Clock::time_point t0,
              Clock::time_point t1, int depth) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, t0, t1, depth});
  }

  /// Nested scope on the calling thread.
  class Scope {
   public:
    Scope(Tracer& t, std::string name)
        : t_(t), name_(std::move(name)), depth_(++depth()), t0_(Clock::now()) {}
    ~Scope() {
      t_.record(name_, t0_, Clock::now(), depth_);
      --depth();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::string name_;
    int depth_;
    Clock::time_point t0_;
  };
  static int& depth() {
    thread_local int d = 0;
    return d;
  }

  /// Inclusive duration totals per name, in ms.
  std::map<std::string, double> inclusive_ms() const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) out[s.name] += ms(s.t0, s.t1);
    return out;
  }
  std::map<std::string, std::size_t> counts() const {
    std::map<std::string, std::size_t> out;
    for (const Span& s : spans_) ++out[s.name];
    return out;
  }

  /// Self time per name (ms): each instant goes to the deepest open span(s);
  /// distinct names open at that depth share it equally.
  std::map<std::string, double> self_ms() const {
    struct Ev {
      Clock::time_point t;
      bool open;
      std::size_t span;
    };
    std::vector<Ev> ev;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      ev.push_back({spans_[i].t0, true, i});
      ev.push_back({spans_[i].t1, false, i});
    }
    std::sort(ev.begin(), ev.end(), [](const Ev& a, const Ev& b) {
      if (a.t != b.t) return a.t < b.t;
      return !a.open && b.open;  // close before open at the same instant
    });
    std::map<int, std::map<std::string, int>> open;
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < ev.size(); ++i) {
      if (i > 0 && !open.empty() && ev[i].t > ev[i - 1].t) {
        const auto& top = open.rbegin()->second;
        const double share =
            ms(ev[i - 1].t, ev[i].t) / static_cast<double>(top.size());
        for (const auto& [name, n] : top) out[name] += share;
      }
      const Span& s = spans_[ev[i].span];
      if (ev[i].open) {
        ++open[s.depth][s.name];
      } else {
        auto& level = open[s.depth];
        if (--level[s.name] == 0) level.erase(s.name);
        if (level.empty()) open.erase(s.depth);
      }
    }
    return out;
  }

  static double ms(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Timing decorator around the public engine::Sampler interface: each call
/// becomes an engine.sample span one level below the refinement span, on
/// whichever pool thread runs it.
class TimingSampler : public rca::engine::Sampler {
 public:
  TimingSampler(rca::engine::Sampler& inner, Tracer& tracer, int depth)
      : inner_(inner), tracer_(tracer), depth_(depth) {}

  std::vector<rca::graph::NodeId> detect_differences(
      const std::vector<rca::graph::NodeId>& sites) override {
    const auto t0 = Clock::now();
    auto out = inner_.detect_differences(sites);
    note(t0, sites.size());
    return out;
  }
  std::vector<rca::engine::Difference> detect_with_magnitudes(
      const std::vector<rca::graph::NodeId>& sites) override {
    const auto t0 = Clock::now();
    auto out = inner_.detect_with_magnitudes(sites);
    note(t0, sites.size());
    return out;
  }
  std::size_t calls() const { return calls_; }
  std::size_t sites() const { return sites_; }

 private:
  void note(Clock::time_point t0, std::size_t sites) {
    tracer_.record("engine.sample", t0, Clock::now(), depth_);
    calls_ += 1;
    sites_ += sites;
  }
  rca::engine::Sampler& inner_;
  Tracer& tracer_;
  int depth_;
  std::atomic<std::size_t> calls_{0};
  std::atomic<std::size_t> sites_{0};
};

// ---------------------------------------------------------------------------
// Per-layer metric set (identical for every workload; 0 = layer not called)
// ---------------------------------------------------------------------------

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kList = [] {
    std::vector<std::pair<std::string, std::string>> l = {
        {"trace.wall_s", "s"},           {"trace.gap_pct", "%"},
        {"trace.overhead_pct", "%"},     {"model.corpus_ms", "ms"},
        {"interp.coverage_ms", "ms"},
        {"model.ensemble_ms", "ms"},     {"model.run_ms", "ms"},
        {"model.runs", "count"},         {"model.experiment_ms", "ms"},
        {"model.planted_ms", "ms"},      {"ect.fit_ms", "ms"},
        {"ect.evaluate_ms", "ms"},       {"stats.lasso_ms", "ms"},
        {"stats.median_rank_ms", "ms"},  {"engine.refine_ms", "ms"},
        {"engine.refine_self_ms", "ms"}, {"engine.sample_ms", "ms"},
        {"engine.sample_calls", "count"}, {"engine.sampled_sites", "count"},
        {"engine.iterations", "count"},  {"campaign.score_ms", "ms"},
        {"hits_top15", "count"},         {"lang.parse_ms", "ms"},
        {"meta.build_ms", "ms"},         {"meta.patch_ms", "ms"},
        {"slice.backward_ms", "ms"},     {"graph.gn_ms", "ms"},
        {"graph.louvain_ms", "ms"},      {"graph.eigenvector_ms", "ms"},
        {"analysis.lint_ms", "ms"},      {"service.resident_mb", "MiB"},
        {"http.health_rtt_ms", "ms"},    {"obs.metrics_bytes", "bytes"},
        {"obs.scrape_ms", "ms"},         {"serve.rss_growth_mb", "MiB"},
    };
    for (const char* r : {"patch", "slice", "rank", "louvain", "gn", "lint",
                          "health", "metrics"}) {
      l.emplace_back(std::string("service.router_ms.") + r, "ms");
    }
    for (const char* r :
         {"patch", "slice", "rank", "louvain", "lint", "health", "metrics"}) {
      l.emplace_back(std::string("http.transport_ms.") + r, "ms");
    }
    return l;
  }();
  return kList;
}

/// Spans that only group others: their self time is benchmark glue.
bool is_container(const std::string& name) {
  return name == "gap" || name == "setup" || name == "pass" ||
         name == "round" || name == "replay" || name == "http.phase";
}
/// Benchmark work outside the traced run (untraced reference runs, output
/// checks): excluded from the traced wall time.
bool is_excluded(const std::string& name) {
  return name == "untraced" || name.rfind("bench.", 0) == 0;
}

/// Trace-level figures plus the gap check, common to every workload.
void finish_trace(const Tracer& tr, Clock::time_point t0, Clock::time_point t1,
                  std::map<std::string, double>& m, Result& r) {
  const auto self = tr.self_ms();
  double wall_ms = Tracer::ms(t0, t1);
  double gap_ms = 0.0;
  for (const auto& [name, ms] : self) {
    if (is_excluded(name)) wall_ms -= ms;
    if (is_container(name)) gap_ms += ms;
  }
  std::fprintf(stderr, "%-30s %12s %8s\n", "span", "self_ms", "share");
  for (const auto& [name, ms] : self) {
    if (is_excluded(name)) continue;
    std::fprintf(stderr, "%-30s %12.2f %7.2f%%\n", name.c_str(), ms,
                 100.0 * ms / wall_ms);
  }
  const double gap_pct = 100.0 * gap_ms / wall_ms;
  std::fprintf(stderr, "traced wall %.1f ms, layers %.1f ms, gap %.3f%%\n",
               wall_ms, wall_ms - gap_ms, gap_pct);
  m["trace.gap_pct"] = gap_pct;
  r.check(gap_pct <= kMaxGapPct, "per-layer self times miss the traced wall "
                                 "time by more than 5%");
}

double overhead_pct(const std::vector<double>& traced,
                    const std::vector<double>& untraced) {
  return 100.0 * (median(traced) / median(untraced) - 1.0);
}

// ---------------------------------------------------------------------------
// scenario-library: stage-by-stage replay of the Pipeline
// ---------------------------------------------------------------------------

/// The Pipeline's state, rebuilt stage by stage through layer entry points.
struct Replay {
  rca::engine::PipelineConfig cfg = scenario_pipeline_config();
  std::unique_ptr<rca::ThreadPool> pool;
  std::unique_ptr<rca::model::CesmModel> control;
  rca::meta::Metagraph mg;
  std::vector<std::string> names;
  rca::stats::Matrix ensemble;
  std::unique_ptr<rca::ect::EnsembleConsistencyTest> ect;
  std::map<rca::model::BugId, std::unique_ptr<rca::model::CesmModel>>
      bug_models;

  /// Mirrors Pipeline's constructor (no snapshot cache) plus the scenario
  /// corpora build_pipeline() warms.
  void setup(Tracer& tr) {
    pool = std::make_unique<rca::ThreadPool>(cfg.threads);
    cfg.refinement.pool = pool.get();
    {
      Tracer::Scope s(tr, "model.corpus");
      control = std::make_unique<rca::model::CesmModel>(cfg.corpus, pool.get());
    }
    rca::interp::CoverageRecorder coverage;
    {
      Tracer::Scope s(tr, "interp.coverage");
      coverage = control->coverage_run(2);
    }
    {
      Tracer::Scope s(tr, "meta.build");
      rca::cov::CoverageFilter filter(coverage, &control->compiled_modules());
      rca::meta::BuilderOptions opts;
      opts.module_filter = filter.module_predicate();
      opts.subprogram_filter = filter.subprogram_predicate();
      opts.pool = pool.get();
      opts.prune_dead_stores = cfg.prune_dead_stores;
      mg = rca::meta::build_metagraph(control->compiled_modules(), opts);
    }
    {
      Tracer::Scope s(tr, "model.ensemble");
      ensemble = rca::model::ensemble_matrix(*control, cfg.base_run,
                                             cfg.ensemble_members, &names, 1);
    }
    {
      Tracer::Scope s(tr, "ect.fit");
      ect = std::make_unique<rca::ect::EnsembleConsistencyTest>(ensemble, names,
                                                                cfg.ect);
    }
    for (const auto& sc : rca::model::scenario_library()) {
      if (sc.bug == rca::model::BugId::kNone || bug_models.count(sc.bug)) {
        continue;
      }
      Tracer::Scope s(tr, "model.corpus");
      rca::model::CorpusSpec spec = cfg.corpus;
      spec.bug = sc.bug;
      bug_models[sc.bug] =
          std::make_unique<rca::model::CesmModel>(spec, pool.get());
    }
  }

  const rca::model::CesmModel& model_for(rca::model::BugId bug) const {
    return bug == rca::model::BugId::kNone ? *control : *bug_models.at(bug);
  }

  /// Mirrors Pipeline::run_scenario(s, runtime_sampling = true).
  rca::engine::ExperimentOutcome run(const rca::model::ScenarioSpec& s,
                                     Tracer& tr,
                                     std::map<std::string, double>& counts) {
    rca::engine::ExperimentOutcome out;
    const rca::model::CesmModel& exp_model = model_for(s.bug);
    const rca::model::RunConfig exp_config =
        rca::model::scenario_run_config(s, cfg.base_run);
    std::vector<rca::graph::NodeId> planted;
    {
      Tracer::Scope sc(tr, "model.planted");
      planted = rca::model::scenario_planted_nodes(s, mg,
                                                   control->compiled_modules());
    }
    std::vector<std::vector<double>> verdict_runs;
    {
      Tracer::Scope sc(tr, "model.experiment");
      verdict_runs =
          rca::model::experiment_set(exp_model, exp_config, 3, 5000, names);
    }
    {
      Tracer::Scope sc(tr, "ect.evaluate");
      out.verdict = ect->evaluate(verdict_runs);
    }
    std::vector<std::vector<double>> exp_runs;
    {
      Tracer::Scope sc(tr, "model.experiment");
      exp_runs = rca::model::experiment_set(exp_model, exp_config,
                                            cfg.experimental_runs, 6000, names);
    }
    counts["model.runs"] += static_cast<double>(3 + cfg.experimental_runs);
    rca::stats::Matrix exp_matrix(exp_runs.size(), names.size());
    for (std::size_t i = 0; i < exp_runs.size(); ++i) {
      for (std::size_t j = 0; j < names.size(); ++j) {
        exp_matrix.at(i, j) = exp_runs[i][j];
      }
    }
    {
      Tracer::Scope sc(tr, "stats.lasso");
      out.lasso_selected = rca::stats::lasso_selection(ensemble, exp_matrix,
                                                       names, cfg.lasso_target);
    }
    {
      Tracer::Scope sc(tr, "stats.median_rank");
      out.median_ranked =
          rca::stats::median_distance_ranking(ensemble, exp_matrix, names);
    }
    const auto& ranked = out.median_ranked;
    const bool dominant =
        ranked.size() >= 2 && ranked[0].iqr_disjoint &&
        ranked[0].median_distance >
            1000.0 * std::max(ranked[1].median_distance, 1e-300);
    out.criteria_outputs = dominant ? std::vector<std::string>{ranked[0].name}
                                    : out.lasso_selected;
    if (out.criteria_outputs.empty()) {
      for (std::size_t k = 0; k < cfg.lasso_target && k < ranked.size(); ++k) {
        out.criteria_outputs.push_back(ranked[k].name);
      }
    }
    {
      Tracer::Scope sc(tr, "slice.backward");
      for (const std::string& label : out.criteria_outputs) {
        for (const std::string& internal :
             rca::slice::internal_names_for_output(mg, label)) {
          auto& names_out = out.internal_names;
          if (std::find(names_out.begin(), names_out.end(), internal) ==
              names_out.end()) {
            names_out.push_back(internal);
          }
        }
      }
      if (out.internal_names.empty()) {
        throw std::runtime_error("no slicing criteria");
      }
      rca::slice::SliceOptions opts;
      if (cfg.restrict_to_cam) {
        opts.module_filter = [](const std::string& m) {
          return rca::model::is_cam_module(m);
        };
      }
      opts.drop_components_smaller_than = cfg.drop_small_components;
      opts.pool = pool.get();
      out.slice = rca::slice::backward_slice(mg, out.internal_names, opts);
    }
    out.bug_nodes = std::move(planted);
    {
      Tracer::Scope sc(tr, "engine.refine");
      rca::model::RunConfig control_config = cfg.base_run;
      control_config.member_seed = 31;
      rca::model::RunConfig experiment_config = exp_config;
      experiment_config.member_seed = 31;
      rca::engine::RuntimeSampler runtime(mg, *control, exp_model,
                                          control_config, experiment_config);
      TimingSampler timed(runtime, tr, Tracer::depth() + 1);
      rca::engine::RefinementEngine engine(mg, timed, cfg.refinement);
      out.refinement =
          engine.run(out.slice.nodes, out.bug_nodes, out.slice.targets);
      counts["engine.sample_calls"] += static_cast<double>(timed.calls());
      counts["engine.sampled_sites"] += static_cast<double>(timed.sites());
      counts["model.runs"] += 2.0 * static_cast<double>(timed.calls());
      counts["engine.iterations"] +=
          static_cast<double>(out.refinement.iterations.size());
    }
    return out;
  }
};

void scenario_library(const Args& a, Result& r,
                      std::map<std::string, double>& m) {
  // Reference: the real Pipeline, untraced (also the overhead baseline).
  std::unique_ptr<rca::engine::Pipeline> p = build_pipeline();
  Replay replay;
  Tracer tr;
  std::map<std::string, double> counts;
  const auto& library = rca::model::scenario_library();

  const auto t_start = Clock::now();
  std::vector<double> traced_ms, untraced_ms;
  std::string reference_board;
  {
    Tracer::Scope root(tr, "gap");
    {
      Tracer::Scope s(tr, "setup");
      replay.setup(tr);
    }
    const auto deadline = deadline_after(a.seconds);
    for (std::size_t pass = 0; traced_ms.empty() || Clock::now() < deadline;
         ++pass) {
      // Untraced pass through Pipeline::run_scenario, outside the trace.
      PassResult ref;
      {
        Tracer::Scope s(tr, "untraced");
        ref = run_scenario_pass(*p, a.seed, pass, r);
      }
      untraced_ms.push_back(ref.wall_ms);
      if (pass == 0) reference_board = ref.board;
      r.check(ref.board == reference_board,
              "scoreboard differs between passes");

      // Traced replay pass, same seeded order.
      std::vector<rca::campaign::ScenarioScore> scores(library.size());
      const auto t_pass = Clock::now();
      {
        Tracer::Scope s(tr, "pass");
        for (std::size_t idx : scenario_order(a.seed, pass)) {
          bool ok = true;
          try {
            rca::engine::ExperimentOutcome o =
                replay.run(library[idx], tr, counts);
            Tracer::Scope sc(tr, "campaign.score");
            scores[idx] = score_outcome(library[idx], o, replay.mg);
          } catch (const std::exception& e) {
            std::fprintf(stderr, "replay %s failed: %s\n",
                         library[idx].name.c_str(), e.what());
            ok = false;
          }
          r.attempt(ok);
        }
      }
      traced_ms.push_back(ms_since(t_pass));
      const std::string board = scoreboard_json(scores);
      r.check(board == reference_board,
              "replay scoreboard differs from Pipeline::run_scenario's");
      if (pass == 0) {
        std::size_t hits = 0;
        check_scoreboard(scores, r, &hits);
        m["hits_top15"] = static_cast<double>(hits);
      }
    }
  }
  const auto t_end = Clock::now();
  const double passes = static_cast<double>(traced_ms.size());
  const auto self = tr.self_ms();
  const auto incl = tr.inclusive_ms();
  auto total = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  // Setup layers per Pipeline construction, the rest per pass.
  m["model.corpus_ms"] = total("model.corpus");
  m["interp.coverage_ms"] = total("interp.coverage");
  m["meta.build_ms"] = total("meta.build");
  m["model.ensemble_ms"] = total("model.ensemble");
  m["model.run_ms"] = total("model.ensemble") /
                      static_cast<double>(replay.cfg.ensemble_members);
  m["ect.fit_ms"] = total("ect.fit");
  for (const char* layer :
       {"model.experiment", "model.planted", "ect.evaluate", "stats.lasso",
        "stats.median_rank", "slice.backward", "engine.sample",
        "campaign.score"}) {
    m[std::string(layer) + "_ms"] = total(layer) / passes;
  }
  m["engine.refine_ms"] = incl.at("engine.refine") / passes;
  m["engine.refine_self_ms"] = total("engine.refine") / passes;
  for (const auto& [k, v] : counts) m[k] = v / passes;
  m["trace.wall_s"] = median(traced_ms) / 1000.0;
  m["trace.overhead_pct"] = overhead_pct(traced_ms, untraced_ms);
  finish_trace(tr, t_start, t_end, m, r);
}

// ---------------------------------------------------------------------------
// cesm-session: direct layer calls, then the same rounds through the Router
// ---------------------------------------------------------------------------

void cesm_session(const Args& a, Result& r,
                  std::map<std::string, double>& m) {
  rca::obs::global().set_enabled(true);  // as `rca-tool serve` runs
  Tracer tr;
  CesmSession direct;  // corpus, pools and store options
  CesmSession routed;
  std::size_t direct_rounds = 0;
  std::vector<double> traced_ms, untraced_ms;
  const auto t0 = Clock::now();
  {
    Tracer::Scope root(tr, "gap");
    // The session the direct rounds edit (SessionStore's own cold build).
    {
      Tracer::Scope s(tr, "service.cold_build");
      direct.start(a.seed);
    }
    // The same cold build again, split into its parse and metagraph-build
    // layers (the SessionStore cold path: parse every file, then one
    // all-dirty transaction); second, so both see a warm allocator.
    std::vector<std::pair<std::string, std::string>> errors;
    std::vector<rca::lang::SourceFile> files;
    {
      Tracer::Scope s(tr, "lang.parse");
      files = rca::service::parse_sources(direct.corpus.sources,
                                          &direct.build_pool, &errors);
    }
    r.check(errors.empty(), "cesm corpus failed to parse");
    {
      Tracer::Scope s(tr, "meta.build");
      std::vector<std::shared_ptr<const rca::lang::SourceFile>> owned;
      std::vector<rca::meta::TxnInput> inputs;
      const std::set<std::string> build(direct.config.build_list.begin(),
                                        direct.config.build_list.end());
      for (auto& f : files) {
        auto file = std::make_shared<const rca::lang::SourceFile>(std::move(f));
        for (const auto& mod : file->modules) {
          if (build.count(mod.name)) {
            inputs.push_back(rca::meta::TxnInput{file->path, &mod, true, file});
          }
        }
        owned.push_back(std::move(file));
      }
      rca::meta::BuilderOptions opts;
      opts.pool = &direct.build_pool;
      rca::meta::run_transaction(inputs, nullptr, opts);
    }

    const auto deadline = deadline_after(a.seconds / 2);
    while (direct_rounds < 2 || Clock::now() < deadline) {
      auto [idx, text] = direct.edits->next(direct.cur);
      rca::service::SessionStore::PatchEdit edit;
      edit.upserts.emplace_back(direct.cur[idx].first, text);
      rca::service::SessionStore::PatchResult pr;
      {
        Tracer::Scope s(tr, "meta.patch");
        pr = direct.store->patch(direct.head, edit);
      }
      r.check(!pr.rolled_back && !pr.full_rewalk,
              "patch left the incremental path");
      direct.cur[idx].second = std::move(text);
      direct.head = pr.session->key();
      const rca::meta::Metagraph& mg = pr.session->metagraph();
      for (const std::string& label : direct.round_labels()) {
        Tracer::Scope s(tr, "slice.backward");
        rca::slice::SliceOptions opts;
        opts.module_filter = [](const std::string& mod) {
          return rca::model::is_cam_module(mod);
        };
        rca::slice::backward_slice(
            mg, rca::slice::internal_names_for_output(mg, label), opts);
      }
      {
        Tracer::Scope s(tr, "graph.eigenvector");
        rca::graph::top_k(rca::graph::eigenvector_centrality(
                              mg.graph(), rca::graph::Direction::kIn),
                          15);
      }
      {
        Tracer::Scope s(tr, "graph.louvain");
        rca::graph::LouvainOptions opts;
        opts.min_community_size = 4;
        rca::graph::louvain(mg.graph(), opts);
      }
      {
        Tracer::Scope s(tr, "graph.gn");
        rca::graph::GirvanNewmanOptions opts;
        opts.min_community_size = 4;
        opts.betweenness_samples = kGnSamples;
        opts.betweenness_seed = 2019;
        rca::graph::communities_with_budget(mg.graph(), opts);
      }
      {
        Tracer::Scope s(tr, "analysis.lint");
        pr.session->lint();
      }
      ++direct_rounds;
      r.attempt(true);
    }

    // The same seeded rounds through the Router, alternating traced and
    // untraced rounds for the overhead figure.
    {
      Tracer::Scope s(tr, "service.cold_build");
      routed.start(a.seed);
    }
    Hook hook = [&tr](const std::string& name, Clock::time_point b,
                      Clock::time_point e) {
      tr.record("service.router." + name, b, e, Tracer::depth() + 1);
    };
    const auto deadline2 = deadline_after(a.seconds / 2);
    for (int i = 0; traced_ms.size() < 2 || Clock::now() < deadline2; ++i) {
      bool ok = true;
      try {
        if (i % 2 == 0) {
          Tracer::Scope s(tr, "round");
          traced_ms.push_back(routed.round(r, hook));
        } else {
          Tracer::Scope s(tr, "untraced");
          untraced_ms.push_back(routed.round(r));
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "round failed: %s\n", e.what());
        ok = false;
      }
      r.attempt(ok);
    }
    m["service.resident_mb"] =
        static_cast<double>(routed.store->resident_bytes()) / (1024.0 * 1024.0);
    Tracer::Scope s(tr, "bench.check");
    routed.check_final(r);
  }
  const auto t1 = Clock::now();

  const auto self = tr.self_ms();
  const auto incl = tr.inclusive_ms();
  const auto n = tr.counts();
  auto total = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const double rounds = static_cast<double>(direct_rounds);
  m["lang.parse_ms"] = total("lang.parse");
  m["meta.build_ms"] = total("meta.build");
  for (const char* layer : {"meta.patch", "slice.backward", "graph.eigenvector",
                            "graph.louvain", "graph.gn", "analysis.lint"}) {
    m[std::string(layer) + "_ms"] = total(layer) / rounds;
  }
  for (const char* route :
       {"patch", "slice", "rank", "louvain", "gn", "lint"}) {
    const std::string k = std::string("service.router.") + route;
    if (incl.count(k)) {
      m[std::string("service.router_ms.") + route] =
          incl.at(k) / static_cast<double>(n.at(k));
    }
  }
  m["trace.wall_s"] = median(traced_ms) / 1000.0;
  m["trace.overhead_pct"] = overhead_pct(traced_ms, untraced_ms);
  finish_trace(tr, t0, t1, m, r);
}

// ---------------------------------------------------------------------------
// serve-mixed: HTTP phase, then an in-process Router replay of its log
// ---------------------------------------------------------------------------

void serve_mixed(const Args& a, Result& r,
                 std::map<std::string, double>& m) {
  rca::obs::global().set_enabled(true);  // the replay Router runs as serve does
  Tracer tr;
  ServeRun run(a);
  std::vector<LogEntry> log;
  double http_route_ms[kRouteCount] = {};
  double router_route_ms[kRouteCount] = {};
  std::size_t route_n[kRouteCount] = {};
  std::vector<double> traced_ms, untraced_ms;
  const auto t0 = Clock::now();
  {
    Tracer::Scope root(tr, "gap");
    {
      Tracer::Scope s(tr, "serve.setup");
      run.start(a, 0);
    }
    std::vector<std::string> labels;
    rca::ThreadPool build_pool(4);
    rca::service::SessionStoreOptions sopts;
    sopts.build_pool = &build_pool;
    sopts.max_bytes = kServeSessionBytes;
    {
      Tracer::Scope s(tr, "bench.labels");  // untimed in-process build
      rca::service::SessionStore store(sopts);
      auto session =
          store.get_or_build(session_config(run.corpus), run.corpus.sources);
      labels = seeded_labels(session->metagraph(), a.seed);
    }
    const double rss_setup = proc_status_mb(run.daemon->pid(), "VmRSS");
    // A fixed request count over HTTP, so the registry size, RSS growth and
    // replay length below do not depend on throughput.
    {
      Tracer::Scope s(tr, "http.phase");
      log = run.run(a.seed, kTraceRequests, labels, r);
    }
    r.check(log.size() == kTraceRequests, "HTTP phase ended early");
    for (const LogEntry& e : log) {
      const auto t_end = e.done;
      const auto t_begin =
          t_end - std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(e.latency_ms));
      // Depth 3: below the http.phase span.
      tr.record(std::string("http.") + route_name(e.route), t_begin, t_end, 3);
      http_route_ms[static_cast<int>(e.route)] += e.latency_ms;
      ++route_n[static_cast<int>(e.route)];
    }
    {
      Tracer::Scope s(tr, "bench.final");  // final scrape and daemon stop
      HttpConn conn(run.daemon->port());
      int status = 0;
      std::string body;
      if (conn.request("GET", "/v1/metrics", "", &status, &body) &&
          status == 200) {
        m["obs.metrics_bytes"] = static_cast<double>(body.size());
      }
      if (conn.request("GET", "/v1/health", "", &status, &body) &&
          status == 200) {
        const auto bytes = rca::parse_json(body).get_int("resident_bytes", 0);
        m["service.resident_mb"] =
            static_cast<double>(bytes) / (1024.0 * 1024.0);
      }
      m["serve.rss_growth_mb"] =
          proc_status_mb(run.daemon->pid(), "VmRSS") - rss_setup;
      r.check(run.stop() == 0, "daemon did not exit cleanly");
    }

    // Replay the whole log in send order: warm-up, untraced, traced. Each
    // replay starts from a fresh store and an empty registry, as the daemon
    // did, and keeps its responses. The two timed replays differ only by
    // the span records; the traced one's bodies are checked afterwards.
    std::vector<rca::service::Response> responses(log.size());
    auto replay = [&](bool traced) {
      rca::obs::global().reset();
      rca::service::SessionStore store(sopts);
      rca::service::Router router(&store, rca::service::RouterOptions{});
      router.handle({"POST", "/v1/graph/build",
                     build_body(run.corpus, run.dir / "corpus")});
      std::optional<Tracer::Scope> s;
      if (traced) s.emplace(tr, "replay");
      const auto t_replay = Clock::now();
      for (std::size_t i = 0; i < log.size(); ++i) {
        const LogEntry& e = log[i];
        const auto b = Clock::now();
        responses[i] = router.handle(
            {route_method(e.route), route_path(e.route), e.body});
        if (!traced) continue;
        const auto end = Clock::now();
        tr.record(std::string("service.router.") + route_name(e.route), b, end,
                  Tracer::depth() + 1);
        router_route_ms[static_cast<int>(e.route)] += Tracer::ms(b, end);
      }
      (traced ? traced_ms : untraced_ms).push_back(ms_since(t_replay));
    };
    for (int i = 0; i < 2; ++i) {
      Tracer::Scope s(tr, "untraced");
      untraced_ms.clear();
      replay(false);
    }
    replay(true);
    Tracer::Scope s(tr, "bench.check");
    for (std::size_t i = 0; i < log.size(); ++i) {
      const LogEntry& e = log[i];
      const bool same =
          responses[i].status == 200 &&
          (state_route(e.route) ||
           std::hash<std::string>{}(responses[i].body) == e.resp_hash);
      r.attempt(e.status == 200 && same);
    }
  }
  const auto t1 = Clock::now();
  for (int i = 0; i < kRouteCount; ++i) {
    if (route_n[i] == 0) continue;
    const std::string route = route_name(static_cast<Route>(i));
    const double http = http_route_ms[i] / static_cast<double>(route_n[i]);
    const double local = router_route_ms[i] / static_cast<double>(route_n[i]);
    m["service.router_ms." + route] = local;
    m["http.transport_ms." + route] = http - local;
  }
  const int health = static_cast<int>(Route::kHealth);
  const int metrics = static_cast<int>(Route::kMetrics);
  if (route_n[health]) {
    m["http.health_rtt_ms"] = http_route_ms[health] / route_n[health];
  }
  if (route_n[metrics]) {
    m["obs.scrape_ms"] = http_route_ms[metrics] / route_n[metrics];
  }
  m["trace.wall_s"] = median(traced_ms) / 1000.0;
  m["trace.overhead_pct"] = overhead_pct(traced_ms, untraced_ms);
  finish_trace(tr, t0, t1, m, r);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  try {
    a = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_layers: %s\n", e.what());
    return 2;
  }
  print_context(a);
  Result r;
  std::map<std::string, double> m;
  try {
    if (a.workload == "scenario-library") {
      scenario_library(a, r, m);
    } else if (a.workload == "cesm-session") {
      cesm_session(a, r, m);
    } else if (a.workload == "serve-mixed") {
      serve_mixed(a, r, m);
    } else {
      std::fprintf(stderr, "perfbench_layers: unknown workload %s\n",
                   a.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_layers: %s\n", e.what());
    return 1;
  }
  for (const auto& [name, unit] : layer_metrics()) {
    auto it = m.find(name);
    r.metric(name, it == m.end() ? 0.0 : it->second, unit);
  }
  r.print();
  return 0;
}
