// Untraced end-to-end driver: runs one workload for --seconds, checks its
// outputs and prints the end-to-end metrics as the last line of stdout.
//
//   perfbench_e2e --workload scenario-library|cesm-session|serve-mixed
//                 --seed N --seconds S --work-dir DIR [--rca-tool PATH]
#include "obs/obs.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// scenario-library set-up repetitions; setup_s is their median.
constexpr int kSetupReps = 5;

void report(Result& r, const std::vector<double>& setup_ms,
            const std::vector<double>& block_ms,
            const std::vector<double>& op_ms,
            const std::vector<double>& rss_mb) {
  auto print = [](const char* what, const std::vector<double>& v) {
    std::fprintf(stderr, "%s:", what);
    for (double x : v) std::fprintf(stderr, " %.1f", x);
    std::fprintf(stderr, "\n");
  };
  print("setup ms", setup_ms);
  print("block ms", block_ms);
  print("peak rss MiB", rss_mb);
  std::fprintf(stderr, "blocks: %zu, ops: %zu\n", block_ms.size(),
               op_ms.size());
  r.metric("setup_s", median(setup_ms) / 1000.0, "s");
  r.metric("wall_s", median(block_ms) / 1000.0, "s");
  r.metric("op_p50_ms", quantile(op_ms, 0.50), "ms");
  r.metric("op_p95_ms", quantile(op_ms, 0.95), "ms");
  r.metric("peak_rss_mb", median(rss_mb), "MiB");
}

void scenario_library(const Args& a, Result& r) {
  std::vector<double> setup_ms;
  std::unique_ptr<rca::engine::Pipeline> p;
  for (int i = 0; i < kSetupReps; ++i) {
    p.reset();
    const auto t0 = Clock::now();
    p = build_pipeline();
    setup_ms.push_back(ms_since(t0));
  }
  std::vector<double> pass_ms;
  std::vector<double> op_ms;
  std::vector<double> rss_mb;
  std::string first_board;
  std::vector<rca::campaign::ScenarioScore> first_scores;
  const auto deadline = deadline_after(a.seconds);
  for (std::size_t pass = 0; pass < 2 || Clock::now() < deadline; ++pass) {
    reset_peak_rss();
    PassResult pr = run_scenario_pass(*p, a.seed, pass, r);
    rss_mb.push_back(proc_status_mb("self", "VmHWM"));
    pass_ms.push_back(pr.wall_ms);
    op_ms.insert(op_ms.end(), pr.op_ms.begin(), pr.op_ms.end());
    if (pass == 0) {
      first_board = pr.board;
      first_scores = pr.scores;
    } else {
      r.check(pr.board == first_board, "scoreboard differs between passes");
    }
  }
  std::size_t hits = 0;
  check_scoreboard(first_scores, r, &hits);
  std::fprintf(stderr, "%shits_top15=%zu\n", first_board.c_str(), hits);
  report(r, setup_ms, pass_ms, op_ms, rss_mb);
}

/// Segments of kBlocksPerSegment blocks until the deadline, each from a
/// fresh store (its cold build is one set-up). Peak RSS is read per segment.
/// Segment k runs the edit script of seed (seed, k), so a run covers as many
/// distinct rounds as it has time for.
void cesm_session(const Args& a, Result& r) {
  rca::obs::global().set_enabled(true);  // as `rca-tool serve` runs
  CesmSession s;
  std::vector<double> setup_ms, block_ms, op_ms, rss_mb;
  const auto deadline = deadline_after(a.seconds);
  for (std::uint64_t seg = 0; seg < 2 || Clock::now() < deadline; ++seg) {
    setup_ms.push_back(s.start(a.seed * 1009 + seg));
    for (int b = 0; b < kBlocksPerSegment; ++b) {
      const auto t0 = Clock::now();
      for (int i = 0; i < kRoundsPerBlock; ++i) {
        bool ok = true;
        try {
          op_ms.push_back(s.round(r));
        } catch (const std::exception& e) {
          std::fprintf(stderr, "round failed: %s\n", e.what());
          ok = false;
        }
        r.attempt(ok);
      }
      block_ms.push_back(ms_since(t0));
    }
    rss_mb.push_back(proc_status_mb("self", "VmHWM"));
  }
  s.check_final(r);
  report(r, setup_ms, block_ms, op_ms, rss_mb);
}

/// Segments of kSegmentRequests, each on a fresh daemon, until the deadline.
/// Each segment's daemon spawn is one set-up; its peak RSS is read when the
/// segment's last request has completed. Logs are checked after the
/// deadline, so the checks take no measuring time.
void serve_mixed(const Args& a, Result& r) {
  ServeRun run(a);
  // Labels come from an untimed in-process build of the same corpus.
  std::vector<std::string> labels;
  {
    rca::service::SessionStore store(rca::service::SessionStoreOptions{});
    auto session =
        store.get_or_build(session_config(run.corpus), run.corpus.sources);
    labels = seeded_labels(session->metagraph(), a.seed);
  }
  std::vector<double> setup_ms, batch_ms, rss_mb;
  std::vector<std::vector<LogEntry>> logs;
  const auto deadline = deadline_after(a.seconds);
  for (int seg = 0; seg < 2 || Clock::now() < deadline; ++seg) {
    setup_ms.push_back(run.start(a, seg));
    const auto t0 = Clock::now();
    logs.push_back(run.run(a.seed, kSegmentRequests, labels, r));
    const std::vector<double> batches = batch_times_ms(logs.back(), t0);
    batch_ms.insert(batch_ms.end(), batches.begin(), batches.end());
    rss_mb.push_back(proc_status_mb(run.daemon->pid(), "VmHWM"));
    r.check(logs.back().size() == kSegmentRequests, "segment ended early");
    r.check(run.stop() == 0, "daemon did not exit cleanly");
  }
  std::vector<double> op_ms;
  ExpectedBodies expected;
  for (const std::vector<LogEntry>& log : logs) {
    const std::vector<bool> ok = verify_log(log, run, expected, r);
    for (std::size_t i = 0; i < log.size(); ++i) {
      op_ms.push_back(log[i].latency_ms);
      r.attempt(ok[i]);
    }
  }
  std::fprintf(stderr, "segments: %zu\n", logs.size());
  report(r, setup_ms, batch_ms, op_ms, rss_mb);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  try {
    a = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
    return 2;
  }
  print_context(a);
  Result r;
  try {
    if (a.workload == "scenario-library") {
      scenario_library(a, r);
    } else if (a.workload == "cesm-session") {
      cesm_session(a, r);
    } else if (a.workload == "serve-mixed") {
      serve_mixed(a, r);
    } else {
      std::fprintf(stderr, "perfbench_e2e: unknown workload %s\n",
                   a.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s\n", e.what());
    return 1;
  }
  r.print();
  return 0;
}
