// Shared pieces of the benchmark drivers (e2e.cpp, layers.cpp): argument
// parsing, the seeded workload generators, output checks, the loopback HTTP
// client and daemon control for serve-mixed, and the result line.
//
// Only the repository's stable entry points are used here (Pipeline,
// scenario library, corpus generator, SessionStore, Router, JSON codec), so
// the end-to-end driver keeps compiling when internal layers are reworked.
// Layer-internal calls live in layers.cpp alone.
#pragma once

#include <arpa/inet.h>
#include <fcntl.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/score.hpp"
#include "engine/pipeline.hpp"
#include "graph/centrality.hpp"
#include "meta/serialize.hpp"
#include "model/corpus.hpp"
#include "model/scenario.hpp"
#include "service/build_info.hpp"
#include "service/router.hpp"
#include "service/session_store.hpp"
#include "support/json.hpp"

extern char** environ;

namespace perfbench {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using rca::JsonValue;
using rca::JsonWriter;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Arguments and seeded randomness
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string rca_tool;  // daemon binary (serve-mixed)
  std::string work_dir;  // scratch space inside the checkout
};

inline Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--rca-tool") {
      a.rca_tool = v;
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else {
      throw std::runtime_error("unknown argument " + k);
    }
  }
  if (argc % 2 != 1) throw std::runtime_error("arguments come in pairs");
  if (a.workload.empty()) throw std::runtime_error("--workload is required");
  if (a.seconds <= 0) throw std::runtime_error("--seconds must be > 0");
  return a;
}

/// SplitMix64: tiny, seedable, identical on every platform — the workload
/// generators must not depend on the program's own RNG implementations.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed * 0x9e3779b97f4a7c15ull + 1) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t s_;
};

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

// ---------------------------------------------------------------------------
// Statistics and process memory
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1].
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// A /proc/<pid>/status field in MiB (VmHWM = peak RSS, VmRSS = current).
inline double proc_status_mb(const std::string& pid, const char* field) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      return std::stod(line.substr(prefix.size())) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

/// Restarts this process's peak-RSS count (VmHWM) from its current RSS, so
/// each timed block reports its own peak. Free heap pages go back to the
/// kernel first: otherwise the figure mostly shows how much freed memory
/// the allocator's per-thread arenas happen to keep, which varies from run
/// to run by half of the total.
inline void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

// ---------------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------------

/// Accumulates the run's verdict and metrics; print() emits the single JSON
/// object that must be the last line of standard output.
class Result {
 public:
  void attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// An output check; a failing one counts as a failed op.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct_ = false;
    ++attempted_;
    ++failed_;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      check(false, "metric " + name + " is not finite");
      value = 0.0;
    }
    metrics_.emplace_back(name, std::make_pair(value, unit));
  }
  void print() const {
    JsonWriter w;
    w.begin_object();
    w.key("correct");
    w.boolean(correct_ && failed_ == 0 && attempted_ > 0);
    w.key("attempted");
    w.integer(attempted_);
    w.key("failed");
    w.integer(failed_);
    w.key("metrics");
    w.begin_object();
    for (const auto& [name, vu] : metrics_) {
      w.key(name);
      w.begin_object();
      w.key("value");
      w.number(vu.first);
      w.key("unit");
      w.string_value(vu.second);
      w.end_object();
    }
    w.end_object();
    w.end_object();
    std::fflush(stderr);
    std::printf("%s\n", w.str().c_str());
    std::fflush(stdout);
  }

 private:
  bool correct_ = true;
  long long attempted_ = 0;
  long long failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

inline void print_context(const Args& a) {
  std::fprintf(stderr,
               "context: workload=%s seed=%llu seconds=%g trace=%d nproc=%u "
               "build_type=%s build_id=%s\n",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed),
               a.seconds, a.trace ? 1 : 0, std::thread::hardware_concurrency(),
               RCA_BUILD_TYPE, rca::service::build_id().c_str());
}

// ---------------------------------------------------------------------------
// scenario-library: the `rca-tool score --runtime` path
// ---------------------------------------------------------------------------

constexpr std::size_t kTopM = 15;
/// hits_top15 measured on the unmodified pipeline; fewer is a regression.
constexpr std::size_t kBaselineHits = 4;

inline rca::engine::PipelineConfig scenario_pipeline_config() {
  rca::engine::PipelineConfig config;  // default corpus
  config.ensemble_members = 40;
  config.experimental_runs = 12;
  config.threads = 4;
  config.refinement.rank_differences_on_stall = true;  // as `rca-tool score`
  return config;
}

/// Library scenarios in a seeded order (the scoreboard itself is kept in
/// library order, so it must not depend on the order they ran in).
inline std::vector<std::size_t> scenario_order(std::uint64_t seed,
                                               std::size_t pass) {
  std::vector<std::size_t> order(rca::model::scenario_library().size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(seed * 1000003 + pass);
  shuffle(order, rng);
  return order;
}

/// Best planted rank under eigenvector in-centrality over the subgraph
/// induced on `nodes` — the campaign scorer's ranking rule.
inline std::size_t centrality_rank(
    const rca::graph::Digraph& full,
    const std::vector<rca::graph::NodeId>& nodes,
    const std::vector<rca::graph::NodeId>& planted) {
  if (nodes.empty()) return SIZE_MAX;
  const rca::graph::Digraph sub = rca::graph::induced_subgraph(full, nodes);
  const std::vector<double> scores =
      rca::graph::eigenvector_centrality(sub, rca::graph::Direction::kIn);
  std::vector<rca::graph::NodeId> ranked;
  for (rca::graph::NodeId local : rca::graph::top_k(scores, nodes.size())) {
    ranked.push_back(nodes[local]);
  }
  return rca::model::best_rank(ranked, planted);
}

/// Scores one scenario outcome exactly like campaign::score_scenarios.
inline rca::campaign::ScenarioScore score_outcome(
    const rca::model::ScenarioSpec& s,
    const rca::engine::ExperimentOutcome& out,
    const rca::meta::Metagraph& mg) {
  rca::campaign::ScenarioScore score;
  score.name = s.name;
  score.kind = rca::model::cause_kind_name(s.kind);
  score.planted_nodes = out.bug_nodes.size();
  score.ect_detected = !out.verdict.pass;
  score.slice_nodes = out.slice.nodes.size();
  score.final_nodes = out.refinement.final_nodes.size();
  score.iterations = out.refinement.iterations.size();
  score.stalled = out.refinement.stalled;
  score.bug_in_final =
      rca::model::contains_any(out.refinement.final_nodes, out.bug_nodes);
  score.bug_instrumented_at = out.refinement.bug_instrumented_at;
  score.baseline_rank =
      centrality_rank(mg.graph(), out.slice.nodes, out.bug_nodes);
  score.refined_rank =
      centrality_rank(mg.graph(), out.refinement.final_nodes, out.bug_nodes);
  score.hit = score.refined_rank < kTopM;
  return score;
}

/// rca.campaign.score.v1 document over scores held in library order.
inline std::string scoreboard_json(
    const std::vector<rca::campaign::ScenarioScore>& by_library_index) {
  rca::campaign::Scoreboard board;
  board.top_m = kTopM;
  board.scores = by_library_index;
  for (const auto& s : board.scores) {
    if (s.hit) ++board.hits;
    if (s.kind == "fp-contraction" || s.kind == "fp-reassociation") {
      ++board.fp_scenarios;
    }
  }
  board.hit_rate = board.scores.empty()
                       ? 0.0
                       : static_cast<double>(board.hits) /
                             static_cast<double>(board.scores.size());
  return rca::campaign::scoreboard_json(board);
}

/// Scenarios whose planted cause survives into the final subgraph on the
/// unmodified pipeline (reassoc3's refinement drops it: the perturbation
/// sits at rounding-noise level and the ECT does not detect it).
inline bool keeps_planted_cause_at_baseline(const std::string& name) {
  return name != "reassoc3";
}

/// Checks no scenario lost its planted cause and the hit floor holds.
inline void check_scoreboard(
    const std::vector<rca::campaign::ScenarioScore>& scores, Result& result,
    std::size_t* hits_out) {
  std::size_t hits = 0;
  for (const auto& s : scores) {
    result.check(s.bug_in_final || !keeps_planted_cause_at_baseline(s.name),
                 "scenario " + s.name +
                     " lost its planted cause from the final subgraph");
    if (s.hit) ++hits;
  }
  result.check(hits >= kBaselineHits, "hits_top15 " + std::to_string(hits) +
                                          " below the baseline " +
                                          std::to_string(kBaselineHits));
  *hits_out = hits;
}

// ---------------------------------------------------------------------------
// cesm-session: one module edit, then re-query the new generation
// ---------------------------------------------------------------------------

struct Corpus {
  rca::service::SourceList sources;  // sorted by path
  std::vector<std::string> compiled;  // build list
};

inline Corpus make_corpus(const rca::model::CorpusSpec& spec) {
  rca::model::GeneratedCorpus gen = rca::model::generate_corpus(spec);
  Corpus c;
  for (auto& f : gen.files) c.sources.emplace_back(f.path, std::move(f.text));
  std::sort(c.sources.begin(), c.sources.end());
  c.compiled = gen.compiled_modules;
  return c;
}

inline rca::service::SessionConfig session_config(const Corpus& c) {
  rca::service::SessionConfig config;
  config.build_list = c.compiled;
  return config;
}

/// Seeded body edits: each appends `+ wrkJ * c` to one `wrkK = ...` line of a
/// compiled generated module (J < K, so the variable is in scope). The line
/// count and every declaration stay put, so the module's interface is
/// unchanged and the patch takes the incremental path, yet the graph gains
/// an edge — a real re-walk, not a comment touch.
class EditScript {
 public:
  EditScript(const Corpus& c, std::uint64_t seed) : rng_(seed * 7919 + 17) {
    std::vector<std::string> compiled = c.compiled;
    std::sort(compiled.begin(), compiled.end());
    for (std::size_t i = 0; i < c.sources.size(); ++i) {
      const std::string& path = c.sources[i].first;
      const std::string stem = fs::path(path).stem().string();
      if (stem.rfind("aux_", 0) != 0) continue;
      if (!std::binary_search(compiled.begin(), compiled.end(), stem)) continue;
      if (c.sources[i].second.find(" wrk1 = ") == std::string::npos) continue;
      candidates_.push_back(i);
    }
    if (candidates_.empty()) throw std::runtime_error("no editable modules");
  }

  /// Next edit against the current sources: (index into sources, new text).
  std::pair<std::size_t, std::string> next(
      const rca::service::SourceList& cur) {
    const std::size_t idx = candidates_[rng_.below(candidates_.size())];
    std::string text = cur[idx].second;
    std::vector<std::pair<std::size_t, int>> lines;  // (eol offset, K)
    std::size_t pos = 0;
    while (pos < text.size()) {
      std::size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) eol = text.size();
      const std::string line = text.substr(pos, eol - pos);
      const std::size_t w = line.find_first_not_of(' ');
      if (w != std::string::npos && line.compare(w, 3, "wrk") == 0) {
        const int k = std::atoi(line.c_str() + w + 3);
        if (k >= 1 && line.find(" = ", w) != std::string::npos) {
          lines.emplace_back(eol, k);
        }
      }
      pos = eol + 1;
    }
    const auto [eol, k] = lines[rng_.below(lines.size())];
    const int j = static_cast<int>(rng_.below(static_cast<std::size_t>(k)));
    char term[64];
    std::snprintf(term, sizeof(term), " + wrk%d * 0.%03d", j,
                  static_cast<int>(rng_.below(999) + 1));
    text.insert(eol, term);
    return {idx, std::move(text)};
  }

 private:
  Rng rng_;
  std::vector<std::size_t> candidates_;
};

/// Every output label of the graph, in a seeded order; slice queries draw
/// from all of them, so no run hinges on a few cheap or costly labels.
inline std::vector<std::string> seeded_labels(const rca::meta::Metagraph& mg,
                                              std::uint64_t seed) {
  std::vector<std::string> labels;
  for (const auto& [label, nodes] : mg.io_map()) labels.push_back(label);
  Rng rng(seed * 31 + 5);
  shuffle(labels, rng);
  return labels;
}

inline std::string patch_body(const std::string& session,
                              const std::string& path,
                              const std::string& text) {
  JsonWriter w;
  w.begin_object();
  w.key("session");
  w.string_value(session);
  w.key("modules");
  w.begin_array();
  w.begin_object();
  w.key("path");
  w.string_value(path);
  w.key("src");
  w.string_value(text);
  w.end_object();
  w.end_array();
  w.end_object();
  return w.str();
}

inline std::string slice_body(const std::string& session,
                              const std::string& label) {
  return "{\"session\":\"" + session + "\",\"outputs\":[\"" + label +
         "\"],\"cam_only\":true}";
}
inline std::string rank_body(const std::string& session) {
  return "{\"session\":\"" + session +
         "\",\"kind\":\"eigenvector\",\"top\":15}";
}
inline std::string louvain_body(const std::string& session) {
  return "{\"session\":\"" + session +
         "\",\"method\":\"louvain\",\"min_size\":4}";
}
/// Pivot-sampled Girvan–Newman; budget 0 (unlimited) so the answer never
/// silently degrades to Louvain under load.
constexpr int kGnSamples = 8;
inline std::string gn_body(const std::string& session) {
  return "{\"session\":\"" + session +
         "\",\"method\":\"gn\",\"min_size\":4,\"samples\":" +
         std::to_string(kGnSamples) + ",\"seed\":2019,\"budget_ms\":0}";
}
inline std::string lint_body(const std::string& session) {
  return "{\"session\":\"" + session + "\"}";
}

inline std::string json_string_field(const std::string& body, const char* key) {
  return rca::parse_json(body).get_string(key);
}

/// v2 snapshot bytes of a session's graph.
inline std::string snapshot_bytes(const rca::meta::Metagraph& mg) {
  return rca::meta::save_metagraph_to_string(
      mg, rca::meta::SnapshotFormat::kV2Binary);
}

// ---------------------------------------------------------------------------
// serve-mixed: request mix, loopback client, daemon control
// ---------------------------------------------------------------------------

enum class Route { kSlice, kRank, kLouvain, kLint, kHealth, kPatch, kMetrics };
constexpr int kRouteCount = 7;
inline const char* route_name(Route r) {
  switch (r) {
    case Route::kSlice: return "slice";
    case Route::kRank: return "rank";
    case Route::kLouvain: return "louvain";
    case Route::kLint: return "lint";
    case Route::kHealth: return "health";
    case Route::kPatch: return "patch";
    case Route::kMetrics: return "metrics";
  }
  return "?";
}
inline const char* route_path(Route r) {
  switch (r) {
    case Route::kSlice: return "/v1/slice";
    case Route::kRank: return "/v1/rank";
    case Route::kLouvain: return "/v1/communities";
    case Route::kLint: return "/v1/lint";
    case Route::kHealth: return "/v1/health";
    case Route::kPatch: return "/v1/session/patch";
    case Route::kMetrics: return "/v1/metrics";
  }
  return "?";
}
/// The GET routes (health, metrics): they take no body, and their responses
/// report process state, so they cannot equal an in-process replay byte for
/// byte.
inline bool state_route(Route r) {
  return r == Route::kHealth || r == Route::kMetrics;
}
inline const char* route_method(Route r) {
  return state_route(r) ? "GET" : "POST";
}

constexpr int kServeClients = 4;
/// Daemon session budget (`--session-bytes`); the in-process replays use the
/// same, so both evict alike.
constexpr std::size_t kServeSessionBytes = 16ull << 20;
/// Every kPatchEvery-th op of client 0 is a patch; every kScrapeEvery-th op
/// of client 1 is a /v1/metrics scrape. No recorded traffic backs either
/// rate: they are assumptions (about 1 request in 160 a write, 1 in 400 a
/// scrape), chosen so both paths run many times per run without dominating.
constexpr int kPatchEvery = 40;
constexpr int kScrapeEvery = 100;

/// Read route for a client's op: uniform over the five read routes, as
/// bench/perf_service spreads its load evenly over its routes.
inline Route draw_read(Rng& rng) {
  constexpr Route kReads[] = {Route::kSlice, Route::kRank, Route::kLouvain,
                              Route::kLint, Route::kHealth};
  return kReads[rng.below(5)];
}

inline std::string read_body(Route r, const std::string& session,
                             const std::string& label) {
  switch (r) {
    case Route::kSlice: return slice_body(session, label);
    case Route::kRank: return rank_body(session);
    case Route::kLouvain: return louvain_body(session);
    case Route::kLint: return lint_body(session);
    default: return "";
  }
}

/// Writes the corpus under `dir` (the daemon reads sources from disk).
inline void write_corpus(const Corpus& c, const fs::path& dir) {
  fs::remove_all(dir);
  for (const auto& [path, text] : c.sources) {
    const fs::path p = dir / path;
    fs::create_directories(p.parent_path());
    std::ofstream out(p, std::ios::binary);
    out << text;
    if (!out) throw std::runtime_error("cannot write " + p.string());
  }
}

inline std::string build_body(const Corpus& c, const fs::path& dir) {
  JsonWriter w;
  w.begin_object();
  w.key("src");
  w.string_value(dir.string());
  w.key("build_list");
  w.begin_array();
  for (const auto& m : c.compiled) w.string_value(m);
  w.end_array();
  w.end_object();
  return w.str();
}

/// One persistent HTTP/1.1 connection to 127.0.0.1 (reconnects when the
/// server recycles it). Deliberately independent of the repository's own
/// client so the measuring instrument does not change with the program.
class HttpConn {
 public:
  explicit HttpConn(std::uint16_t port) : port_(port) {}
  ~HttpConn() { close_fd(); }
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;

  /// False on a transport failure.
  bool request(const std::string& method, const std::string& path,
               const std::string& body, int* status, std::string* out) {
    std::string wire = method + " " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
    wire += "Connection: keep-alive\r\nContent-Type: application/json\r\n";
    wire += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
    wire += body;
    for (int attempt = 0; attempt < 2; ++attempt) {
      const bool reused = fd_ >= 0;
      if (fd_ < 0 && !connect_fd()) return false;
      bool got_bytes = false;
      if (send_all(wire) && read_response(status, out, &got_bytes)) return true;
      close_fd();
      // A reused idle connection the server already closed: retry fresh.
      if (!reused || got_bytes) return false;
    }
    return false;
  }

 private:
  bool connect_fd() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{60, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close_fd();
      return false;
    }
    return true;
  }
  void close_fd() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
    buf_.clear();
  }
  bool send_all(const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }
  bool fill() {
    char tmp[65536];
    const ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
    if (n <= 0) return false;
    buf_.append(tmp, static_cast<std::size_t>(n));
    return true;
  }
  bool read_response(int* status, std::string* out, bool* got_bytes) {
    std::size_t hdr_end;
    while ((hdr_end = buf_.find("\r\n\r\n")) == std::string::npos) {
      if (!fill()) return false;
      *got_bytes = true;
    }
    const std::string head = buf_.substr(0, hdr_end);
    *status = std::atoi(head.c_str() + head.find(' ') + 1);
    std::size_t length = 0;
    bool close_after = false;
    std::istringstream lines(head);
    std::string line;
    while (std::getline(lines, line)) {
      std::string lower = line;
      std::transform(lower.begin(), lower.end(), lower.begin(), ::tolower);
      if (lower.rfind("content-length:", 0) == 0) {
        length = std::stoull(lower.substr(15));
      } else if (lower.rfind("connection:", 0) == 0 &&
                 lower.find("close") != std::string::npos) {
        close_after = true;
      }
    }
    const std::size_t total = hdr_end + 4 + length;
    while (buf_.size() < total) {
      if (!fill()) return false;
    }
    out->assign(buf_, hdr_end + 4, length);
    buf_.erase(0, total);
    if (close_after) close_fd();
    return true;
  }

  std::uint16_t port_;
  int fd_ = -1;
  std::string buf_;
};

/// `rca-tool serve` child process: spawned on an ephemeral port, stopped
/// with SIGINT (graceful drain) and reaped in the destructor at the latest.
class Daemon {
 public:
  Daemon(const std::string& binary, const fs::path& dir) {
    fs::create_directories(dir);
    const fs::path port_file = dir / "port.txt";
    const std::string log = (dir / "serve.log").string();
    std::vector<std::string> argv_s = {
        binary, "serve", "--port-file", port_file.string(), "--jobs", "4",
        "--request-threads", "4", "--session-bytes",
        std::to_string(kServeSessionBytes)};
    std::vector<char*> argv;
    for (auto& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot spawn " + binary);
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < deadline) {
      std::ifstream in(port_file);
      int port = 0;
      if (in >> port && port > 0) {
        port_ = static_cast<std::uint16_t>(port);
        return;
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("daemon exited during start-up");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop();
    throw std::runtime_error("daemon did not announce its port");
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::uint16_t port() const { return port_; }
  std::string pid() const { return std::to_string(pid_); }

  /// Graceful stop; returns the exit code (-1 when killed or already gone).
  int stop() {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGINT);
    int status = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        pid_ = -1;
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

}  // namespace perfbench
