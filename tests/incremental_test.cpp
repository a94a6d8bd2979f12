// Differential edit-sequence harness for incremental session transactions.
//
// The contract under test (ISSUE 7 tentpole): after ANY sequence of edits —
// comment touches, body rewrites, interface changes, module adds/removes,
// parse-error injections — a session updated via SessionStore::patch() holds
// a metagraph whose v2 serialization is byte-identical to a from-scratch
// build of the same sources, and a failed patch rolls back atomically (the
// base session keeps its prior bytes and generation). Scripts are seeded and
// fully deterministic; every step cross-checks against an independent serial
// reference store.
//
// Also pinned here (satellites): generation pins vs LRU eviction (including
// an 8-thread evict-during-patch stress), snapshot-tier orphan hygiene after
// rollbacks, key uniqueness across generations, incremental lint equality,
// and the meta.txn.splice chaos contract.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <latch>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "analysis/summaries.hpp"
#include "fault/fault.hpp"
#include "meta/serialize.hpp"
#include "meta/snapshot_cache.hpp"
#include "model/corpus.hpp"
#include "obs/obs.hpp"
#include "service/router.hpp"
#include "service/session_store.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace fs = std::filesystem;

namespace rca {
namespace {

using service::Session;
using service::SessionConfig;
using service::SessionStore;
using service::SessionStoreOptions;
using service::SourceList;

/// Unique scratch directory, removed on destruction.
struct TempDir {
  fs::path path;
  explicit TempDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("rca-incr-" + tag + "-" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

/// Small synthetic-CESM corpus (~24 files), deterministic per seed.
SourceList small_corpus(std::uint64_t seed) {
  model::CorpusSpec spec;
  spec.seed = seed;
  spec.total_aux_modules = 6;
  spec.compiled_aux_modules = 5;
  spec.executed_aux_modules = 4;
  spec.unused_subprograms_per_module = 1;
  spec.pcols = 4;
  model::GeneratedCorpus corpus = model::generate_corpus(spec);
  SourceList sources;
  sources.reserve(corpus.files.size());
  for (auto& f : corpus.files) {
    sources.emplace_back(f.path, std::move(f.text));
  }
  std::sort(sources.begin(), sources.end());
  return sources;
}

std::string bytes_of(const Session& session) {
  return meta::save_metagraph_to_string(session.metagraph(),
                                        meta::SnapshotFormat::kV2Binary);
}

/// Independent serial from-scratch build of `sources` — the oracle every
/// patched generation is compared against.
std::string reference_bytes(const SessionConfig& config,
                            const SourceList& sources) {
  SessionStoreOptions opts;  // serial, no snapshot tier
  SessionStore ref(opts);
  return bytes_of(*ref.get_or_build(config, sources));
}

// ---------------------------------------------------------------------------
// Edit kinds (pure text manipulation, so the suite cannot share bugs with
// the parser/printer it is checking).
// ---------------------------------------------------------------------------

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : text) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) lines.push_back(cur);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

std::string trimmed(const std::string& s) {
  const auto b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  return s.substr(b, s.find_last_not_of(" \t") - b + 1);
}

/// A plain `lhs = rhs` assignment line (no declarations, no control flow) —
/// safe to duplicate or to extend with `* 1.0`.
bool is_assignment_line(const std::string& line) {
  const std::string t = trimmed(line);
  if (t.find(" = ") == std::string::npos) return false;
  if (t.find("::") != std::string::npos) return false;
  if (t.find('!') != std::string::npos) return false;
  for (const char* kw : {"do ", "if", "call ", "use ", "module ",
                         "subroutine ", "function ", "end", "else"}) {
    if (t.rfind(kw, 0) == 0) return false;
  }
  return true;
}

/// Appends a trailing comment to one line: bytes change, semantics and line
/// count do not — the cheapest possible dirty-module edit.
std::string edit_touch(const std::string& text, SplitMix64* rng, int step) {
  std::vector<std::string> lines = split_lines(text);
  const std::size_t i = rng->next() % lines.size();
  lines[i] += " ! t" + std::to_string(step);
  return join_lines(lines);
}

/// Multiplies one assignment's RHS by 1.0 in place: the module's fragment
/// changes but no line shifts, so every other fragment stays reusable.
std::string edit_rewrite_in_place(const std::string& text, SplitMix64* rng,
                                  int step) {
  std::vector<std::string> lines = split_lines(text);
  std::vector<std::size_t> cands;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (is_assignment_line(lines[i])) cands.push_back(i);
  }
  if (cands.empty()) return edit_touch(text, rng, step);
  lines[cands[rng->next() % cands.size()]] += " * 1.0";
  return join_lines(lines);
}

/// Duplicates one assignment statement: body change that shifts line numbers,
/// escalating to a full re-walk (interface signatures intern sp.line).
std::string edit_duplicate_stmt(const std::string& text, SplitMix64* rng,
                                int step) {
  std::vector<std::string> lines = split_lines(text);
  std::vector<std::size_t> cands;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (is_assignment_line(lines[i])) cands.push_back(i);
  }
  if (cands.empty()) return edit_touch(text, rng, step);
  const std::size_t i = cands[rng->next() % cands.size()];
  lines.insert(lines.begin() + static_cast<long>(i), lines[i]);
  return join_lines(lines);
}

/// Adds a module-level declaration right after `implicit none`: an
/// interface-visible change every other module's symbol table can see.
std::string edit_add_decl(const std::string& text, SplitMix64* rng, int step) {
  std::vector<std::string> lines = split_lines(text);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (trimmed(lines[i]) == "implicit none") {
      lines.insert(lines.begin() + static_cast<long>(i) + 1,
                   "  real :: probe_s" + std::to_string(step));
      return join_lines(lines);
    }
  }
  return edit_touch(text, rng, step);
}

std::string new_module_text(int step) {
  const std::string n = std::to_string(step);
  return "module inc_mod_" + n + "\n"
         "  implicit none\n"
         "  real :: inc_var_" + n + "\n"
         "contains\n"
         "  subroutine inc_sub_" + n + "(x)\n"
         "    real, intent(inout) :: x\n"
         "    x = x + inc_var_" + n + "\n"
         "  end subroutine inc_sub_" + n + "\n"
         "end module inc_mod_" + n + "\n";
}

// ---------------------------------------------------------------------------
// Script driver
// ---------------------------------------------------------------------------

struct ScriptStats {
  std::size_t steps = 0;
  std::size_t commits = 0;
  std::size_t rollbacks = 0;
  std::size_t incremental_commits = 0;  // commits that reused fragments
};

/// Runs one seeded random edit script: every committed step must be
/// byte-identical to an independent from-scratch build, every injected parse
/// error must roll back to the prior bytes and generation, and session keys
/// must never collide across generations with different sources. (Void with
/// an out-param so gtest's fatal ASSERT_* macros are usable inside.)
void run_edit_script(std::uint64_t seed, int steps, std::size_t workers,
                     ScriptStats* out) {
  std::unique_ptr<ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<ThreadPool>(workers);
  SessionStoreOptions opts;
  opts.build_pool = pool.get();
  SessionStore store(opts);
  const SessionConfig config;

  SourceList truth = small_corpus(seed);
  std::shared_ptr<const Session> session = store.get_or_build(config, truth);
  std::string key = session->key();
  EXPECT_EQ(bytes_of(*session), reference_bytes(config, truth))
      << "cold build parity, seed " << seed;

  // Key-uniqueness property: one key, one source list — across the whole
  // generation chain.
  std::map<std::string, SourceList> seen;
  seen.emplace(key, truth);

  SplitMix64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
  ScriptStats& st = *out;
  std::uint64_t expected_gen = 0;
  for (int step = 0; step < steps; ++step) {
    SessionStore::PatchEdit edit;
    SourceList next = truth;
    bool expect_rollback = false;

    const std::uint64_t kind = rng.next() % 100;
    auto pick_file = [&]() -> std::size_t { return rng.next() % next.size(); };
    if (kind < 25) {
      auto& [path, text] = next[pick_file()];
      text = edit_touch(text, &rng, step);
      edit.upserts.emplace_back(path, text);
    } else if (kind < 45) {
      auto& [path, text] = next[pick_file()];
      text = edit_rewrite_in_place(text, &rng, step);
      edit.upserts.emplace_back(path, text);
    } else if (kind < 58) {
      auto& [path, text] = next[pick_file()];
      text = edit_duplicate_stmt(text, &rng, step);
      edit.upserts.emplace_back(path, text);
    } else if (kind < 70) {
      auto& [path, text] = next[pick_file()];
      text = edit_add_decl(text, &rng, step);
      edit.upserts.emplace_back(path, text);
    } else if (kind < 79) {
      const std::string path = "inc/inc_mod_" + std::to_string(step) + ".F90";
      const std::string text = new_module_text(step);
      auto pos = std::lower_bound(
          next.begin(), next.end(), path,
          [](const std::pair<std::string, std::string>& e,
             const std::string& p) { return e.first < p; });
      next.insert(pos, {path, text});
      edit.upserts.emplace_back(path, text);
    } else if (kind < 88 && next.size() > 12) {
      const std::size_t i = pick_file();
      edit.removes.push_back(next[i].first);
      next.erase(next.begin() + static_cast<long>(i));
    } else {
      // Parse-error injection: the edit must be rejected wholesale.
      edit.upserts.emplace_back(
          next[pick_file()].first,
          "module broken_s" + std::to_string(step) + "\n  real :: :::\n");
      expect_rollback = true;
    }

    SessionStore::PatchResult result = store.patch(key, edit);
    ++st.steps;

    if (expect_rollback) {
      ++st.rollbacks;
      EXPECT_TRUE(result.rolled_back) << "seed " << seed << " step " << step;
      EXPECT_FALSE(result.errors.empty());
      EXPECT_EQ(result.session->key(), key);
      EXPECT_EQ(result.session->generation(), expected_gen);
      // The base is still resident and holds its prior bytes.
      std::shared_ptr<const Session> base = store.lookup(key);
      ASSERT_NE(base, nullptr);
      EXPECT_EQ(bytes_of(*base), reference_bytes(config, truth))
          << "rollback must restore prior bytes; seed " << seed << " step "
          << step;
      continue;
    }

    ASSERT_FALSE(result.rolled_back)
        << "unexpected rollback; seed " << seed << " step " << step << ": "
        << (result.errors.empty() ? "" : result.errors[0].second);
    ++st.commits;
    if (!result.full_rewalk && result.reused_fragments > 0) {
      ++st.incremental_commits;
    }
    truth = std::move(next);
    ++expected_gen;
    EXPECT_EQ(result.session->generation(), expected_gen);
    EXPECT_EQ(result.session->sources(), truth);
    ASSERT_EQ(bytes_of(*result.session), reference_bytes(config, truth))
        << "patched graph diverged from from-scratch build; seed " << seed
        << " step " << step << " kind " << kind;

    key = result.session->key();
    auto [it, inserted] = seen.emplace(key, truth);
    if (!inserted) {
      EXPECT_EQ(it->second, truth)
          << "key collision across generations with different sources";
    }
  }
  // Every script must actually exercise the incremental path, not just the
  // full-rewalk escalation.
  EXPECT_GT(st.incremental_commits, 0u) << "seed " << seed;
  EXPECT_GT(st.rollbacks, 0u) << "seed " << seed;
}

// ---------------------------------------------------------------------------
// Differential suites (the ISSUE acceptance floor: >= 200 steps across
// >= 8 seeded scripts, at 1 and 8 build workers).
// ---------------------------------------------------------------------------

TEST(IncrementalDifferential, EditScriptsSerial) {
  std::size_t total_steps = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ScriptStats st;
    run_edit_script(seed, 26, /*workers=*/1, &st);
    total_steps += st.steps;
  }
  EXPECT_GE(total_steps, 200u);
}

TEST(IncrementalDifferential, EditScriptsPooled) {
  std::size_t total_steps = 0;
  for (std::uint64_t seed = 101; seed <= 104; ++seed) {
    ScriptStats st;
    run_edit_script(seed, 26, /*workers=*/8, &st);
    total_steps += st.steps;
  }
  EXPECT_GE(total_steps, 100u);
}

// ---------------------------------------------------------------------------
// Focused rollback + generation semantics
// ---------------------------------------------------------------------------

TEST(IncrementalPatch, RollbackRestoresPriorBytesAndGeneration) {
  SessionStore store(SessionStoreOptions{});
  const SessionConfig config;
  SourceList truth = small_corpus(42);
  auto session = store.get_or_build(config, truth);
  const std::string key = session->key();
  const std::string before = bytes_of(*session);

  SessionStore::PatchEdit bad;
  bad.upserts.emplace_back(truth[0].first, "module nope\n  real :: :::\n");
  auto result = store.patch(key, bad);
  EXPECT_TRUE(result.rolled_back);
  EXPECT_EQ(result.session->generation(), 0u);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.errors[0].first, truth[0].first);
  auto base = store.lookup(key);
  ASSERT_NE(base, nullptr);
  EXPECT_EQ(bytes_of(*base), before);

  // The same session still accepts a good patch afterwards.
  truth[0].second += "! recovered\n";
  SessionStore::PatchEdit good;
  good.upserts.emplace_back(truth[0].first, truth[0].second);
  auto r2 = store.patch(key, good);
  ASSERT_FALSE(r2.rolled_back);
  EXPECT_EQ(r2.session->generation(), 1u);
  EXPECT_EQ(bytes_of(*r2.session), reference_bytes(config, truth));
}

TEST(IncrementalPatch, CommitThenRollbackThenCommit) {
  SessionStore store(SessionStoreOptions{});
  const SessionConfig config;
  SourceList truth = small_corpus(43);
  auto session = store.get_or_build(config, truth);
  std::string key = session->key();

  truth[1].second += "! generation one\n";
  SessionStore::PatchEdit e1;
  e1.upserts.emplace_back(truth[1].first, truth[1].second);
  auto r1 = store.patch(key, e1);
  ASSERT_FALSE(r1.rolled_back);
  EXPECT_EQ(r1.session->generation(), 1u);
  EXPECT_EQ(r1.rebuilt_modules, 1u);
  EXPECT_GT(r1.reused_fragments, 0u);
  EXPECT_FALSE(r1.full_rewalk);
  key = r1.session->key();

  SessionStore::PatchEdit bad;
  bad.upserts.emplace_back(truth[2].first, "module x\n  real :: :::\n");
  auto r2 = store.patch(key, bad);
  EXPECT_TRUE(r2.rolled_back);
  EXPECT_EQ(r2.session->generation(), 1u);
  EXPECT_EQ(bytes_of(*r2.session), reference_bytes(config, truth));

  truth[2].second += "! generation two\n";
  SessionStore::PatchEdit e3;
  e3.upserts.emplace_back(truth[2].first, truth[2].second);
  auto r3 = store.patch(key, e3);
  ASSERT_FALSE(r3.rolled_back);
  EXPECT_EQ(r3.session->generation(), 2u);
  EXPECT_EQ(bytes_of(*r3.session), reference_bytes(config, truth));
}

TEST(IncrementalPatch, UnknownBaseThrows) {
  SessionStore store(SessionStoreOptions{});
  SessionStore::PatchEdit edit;
  edit.upserts.emplace_back("a.f90", "module a\nend module a\n");
  EXPECT_THROW(store.patch("deadbeef", edit), Error);
}

TEST(IncrementalPatch, RemoveUnknownPathThrows) {
  SessionStore store(SessionStoreOptions{});
  SourceList truth = small_corpus(44);
  auto session = store.get_or_build(SessionConfig{}, truth);
  SessionStore::PatchEdit edit;
  edit.removes.push_back("no/such/file.f90");
  EXPECT_THROW(store.patch(session->key(), edit), Error);
}

TEST(IncrementalPatch, NoopEditIsResidentHit) {
  SessionStore store(SessionStoreOptions{});
  SourceList truth = small_corpus(45);
  auto session = store.get_or_build(SessionConfig{}, truth);
  SessionStore::PatchEdit edit;
  edit.upserts.emplace_back(truth[0].first, truth[0].second);  // same bytes
  auto r = store.patch(session->key(), edit);
  EXPECT_TRUE(r.resident_hit);
  EXPECT_FALSE(r.rolled_back);
  EXPECT_EQ(r.session->key(), session->key());
  EXPECT_EQ(r.session->generation(), 0u);
}

TEST(IncrementalPatch, WarmStartedBasePatchesViaFullRewalk) {
  TempDir dir("warm");
  const SessionConfig config;
  SourceList truth = small_corpus(46);
  SessionStoreOptions opts;
  opts.snapshot_dir = dir.path.string();
  {
    SessionStore cold(opts);
    cold.get_or_build(config, truth);  // writes the snapshot
  }
  SessionStore warm(opts);
  auto base = warm.get_or_build(config, truth);
  ASSERT_TRUE(base->warm_started());
  EXPECT_EQ(base->txn_state(), nullptr);

  truth[3].second += "! warm edit\n";
  SessionStore::PatchEdit edit;
  edit.upserts.emplace_back(truth[3].first, truth[3].second);
  auto r = warm.patch(base->key(), edit);
  ASSERT_FALSE(r.rolled_back);
  EXPECT_TRUE(r.full_rewalk);  // no fragment state to reuse
  EXPECT_EQ(bytes_of(*r.session), reference_bytes(config, truth));
  // ... and the patched generation carries state, so the next edit is
  // incremental again.
  truth[3].second += "! warm edit 2\n";
  SessionStore::PatchEdit e2;
  e2.upserts.emplace_back(truth[3].first, truth[3].second);
  auto r2 = warm.patch(r.session->key(), e2);
  ASSERT_FALSE(r2.rolled_back);
  EXPECT_FALSE(r2.full_rewalk);
  EXPECT_GT(r2.reused_fragments, 0u);
  EXPECT_EQ(bytes_of(*r2.session), reference_bytes(config, truth));
}

TEST(IncrementalPatch, CoverageSessionPatchesThroughTheTransaction) {
  struct ObsOn {
    ObsOn() { obs::global().set_enabled(true); }
    ~ObsOn() { obs::global().set_enabled(false); }
  } obs_on;
  SessionStore store(SessionStoreOptions{});
  SessionConfig config;
  config.coverage = true;
  SourceList truth = small_corpus(52);
  auto base = store.get_or_build(config, truth);
  EXPECT_EQ(base->txn_state(), nullptr);  // a filtered build keeps no state
  const std::string before = bytes_of(*base);

  // Body edit of an executed module: one more term, so one more edge.
  auto file = std::find_if(truth.begin(), truth.end(), [](const auto& e) {
    return e.first == "atm/micro_mg.F90";
  });
  ASSERT_NE(file, truth.end());
  const std::string stmt = "nric(i) = 0.5 * qniic(i) + 0.1 * es";
  const std::size_t at = file->second.find(stmt);
  ASSERT_NE(at, std::string::npos);
  file->second.insert(at + stmt.size(), " + 0.01 * qvl");

  const double parses = obs::global().counter("service.session.parses");
  SessionStore::PatchEdit edit;
  edit.upserts.emplace_back(file->first, file->second);
  auto r = store.patch(base->key(), edit);
  ASSERT_FALSE(r.rolled_back);
  EXPECT_TRUE(r.full_rewalk);
  EXPECT_EQ(r.session->generation(), 1u);
  // Only the edited file was parsed, by the patch itself.
  EXPECT_EQ(obs::global().counter("service.session.parses"), parses);
  EXPECT_NE(bytes_of(*r.session), before);
  EXPECT_EQ(bytes_of(*r.session), reference_bytes(config, truth));

  // A broken edit rolls back instead of publishing a degraded session.
  SessionStore::PatchEdit bad;
  bad.upserts.emplace_back(file->first, "module micro_mg\n  real :: :::\n");
  auto rb = store.patch(base->key(), bad);
  EXPECT_TRUE(rb.rolled_back);
  ASSERT_EQ(rb.errors.size(), 1u);
  EXPECT_EQ(rb.errors[0].first, file->first);
  auto resident = store.lookup(base->key());
  ASSERT_NE(resident, nullptr);
  EXPECT_EQ(bytes_of(*resident), before);
}

TEST(IncrementalPatch, OneByteDifferenceNeverSharesKey) {
  SourceList a = small_corpus(47);
  SourceList b = a;
  b[5].second[b[5].second.size() / 2] ^= 1;  // flip one bit of one module
  EXPECT_NE(SessionStore::compute_key(SessionConfig{}, a),
            SessionStore::compute_key(SessionConfig{}, b));
}

// ---------------------------------------------------------------------------
// Incremental lint equality
// ---------------------------------------------------------------------------

TEST(IncrementalLint, SeededLintMatchesFullRunByteForByte) {
  SessionStore store(SessionStoreOptions{});
  service::Router router(&store, service::RouterOptions{});
  const SessionConfig config;
  SourceList truth = small_corpus(48);
  auto session = store.get_or_build(config, truth);
  std::string key = session->key();
  session->lint();  // prime the seed chain

  SplitMix64 rng(4242);
  for (int step = 0; step < 8; ++step) {
    auto& [path, text] = truth[rng.next() % truth.size()];
    text = (step % 2 == 0) ? edit_rewrite_in_place(text, &rng, step)
                           : edit_touch(text, &rng, step);
    SessionStore::PatchEdit edit;
    edit.upserts.emplace_back(path, text);
    auto r = store.patch(key, edit);
    ASSERT_FALSE(r.rolled_back);
    key = r.session->key();

    const analysis::AnalysisResult& incremental = r.session->lint();

    SessionStore fresh(SessionStoreOptions{});
    auto ref = fresh.get_or_build(config, truth);
    const analysis::AnalysisResult& full = ref->lint();

    EXPECT_EQ(analysis::diagnostics_to_tsv(incremental.diagnostics()),
              analysis::diagnostics_to_tsv(full.diagnostics()))
        << "step " << step;
    // The TSV omits file and end_line; the JSON report and the whole
    // /v1/lint body (the session's cached report) carry every field.
    EXPECT_EQ(analysis::diagnostics_to_json(incremental.diagnostics()),
              analysis::diagnostics_to_json(full.diagnostics()))
        << "step " << step;
    EXPECT_EQ(incremental.modules, full.modules);
    EXPECT_EQ(incremental.subprograms, full.subprograms);
    service::Router fresh_router(&fresh, service::RouterOptions{});
    const service::Request lint{"POST", "/v1/lint",
                                "{\"session\": \"" + key + "\"}"};
    const service::Response got = router.handle(lint);
    const service::Response want = fresh_router.handle(lint);
    EXPECT_EQ(got.status, 200) << "step " << step;
    EXPECT_EQ(got.body, want.body) << "step " << step;
  }
}

TEST(IncrementalLint, ConcurrentFirstLintCallsOnAPatchedSessionAgree) {
  SessionStore store(SessionStoreOptions{});
  service::Router router(&store, service::RouterOptions{});
  const SessionConfig config;
  SourceList truth = small_corpus(51);
  auto base = store.get_or_build(config, truth);
  base->lint();  // the patch below carries this result by reference

  SplitMix64 rng(777);
  auto& [path, text] = truth[rng.next() % truth.size()];
  text = edit_rewrite_in_place(text, &rng, 0);
  SessionStore::PatchEdit edit;
  edit.upserts.emplace_back(path, text);
  auto r = store.patch(base->key(), edit);
  ASSERT_FALSE(r.rolled_back);
  ASSERT_FALSE(r.full_rewalk);
  base.reset();

  // Four first /v1/lint calls race on the patched session: its lint (merge
  // with the carried diagnostics) and its report must be built once, and
  // every caller must get the same bytes.
  const service::Request lint{"POST", "/v1/lint",
                              "{\"session\": \"" + r.session->key() + "\"}"};
  constexpr std::size_t kThreads = 4;
  std::vector<service::Response> answers(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      answers[t] = router.handle(lint);
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(answers[0].status, 200);
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(answers[t].status, 200) << t;
    EXPECT_EQ(answers[t].body, answers[0].body) << t;
  }

  SessionStore fresh(SessionStoreOptions{});
  fresh.get_or_build(config, truth);
  service::Router fresh_router(&fresh, service::RouterOptions{});
  EXPECT_EQ(answers[0].body, fresh_router.handle(lint).body);
}

/// Enables the global obs registry for one test body, starting empty.
struct ObsScope {
  ObsScope() {
    obs::global().set_enabled(true);
    obs::global().reset();
  }
  ~ObsScope() { obs::global().set_enabled(false); }
};

/// A corpus as session sources plus its build configuration.
struct CorpusSources {
  SourceList sources;
  SessionConfig config;
};

CorpusSources corpus_sources(const model::CorpusSpec& spec) {
  model::GeneratedCorpus corpus = model::generate_corpus(spec);
  CorpusSources out;
  for (auto& f : corpus.files) {
    out.sources.emplace_back(f.path, std::move(f.text));
  }
  std::sort(out.sources.begin(), out.sources.end());
  out.config.build_list = corpus.compiled_modules;
  return out;
}

std::string lint_body(service::Router& router, const std::string& key) {
  const service::Response r =
      router.handle({"POST", "/v1/lint", "{\"session\": \"" + key + "\"}"});
  EXPECT_EQ(r.status, 200) << r.body;
  return r.body;
}

/// The /v1/lint body of a cold session over `sources`, in a store of its own.
std::string cold_lint_body(const SessionConfig& config,
                           const SourceList& sources) {
  SessionStore fresh(SessionStoreOptions{});
  service::Router router(&fresh, service::RouterOptions{});
  return lint_body(router, fresh.get_or_build(config, sources)->key());
}

/// Replaces the first line that starts (after indentation) with `prefix`,
/// searching from the line that starts with `anchor`. Keeps the line count,
/// so no interface-visible line number moves.
void replace_line_after(std::string* text, const std::string& anchor,
                        const std::string& prefix,
                        const std::string& replacement) {
  std::vector<std::string> lines = split_lines(*text);
  bool seen = false;
  for (std::string& line : lines) {
    const std::string t = trimmed(line);
    if (!seen) {
      seen = t.rfind(anchor, 0) == 0;
    } else if (t.rfind(prefix, 0) == 0) {
      line = replacement;
      *text = join_lines(lines);
      return;
    }
  }
  FAIL() << "no '" << prefix << "' line after '" << anchor << "'";
}

// At cesm scale a chain of interface-preserving edits answers /v1/lint with
// a cold session's bytes after every step: a body rewrite; a pair of calls
// that forms a new recursive component, so the call graph's topology and
// SCCs change; a dropped global write, so a summary changes and the relint
// widens to the module's callers; and an edit relinted after its base
// session was evicted, so the base's own AST of the dirty module is freed.
TEST(IncrementalLint, ChainedEditsMatchColdLintAtCesmScale) {
  ObsScope obs_on;
  CorpusSources corpus = corpus_sources(model::cesm_scale_spec());
  SourceList& truth = corpus.sources;
  const SessionConfig& config = corpus.config;
  auto source_of = [&truth](const std::string& module) -> std::string& {
    for (auto& [path, text] : truth) {
      if (path.ends_with("/" + module + ".F90")) return text;
    }
    throw Error("no source for module " + module);
  };
  // Two aux modules of the build configuration: `a` has two helper
  // subroutines to make recursive, `b` writes a module variable of another
  // module from its main routine, which cam_driver calls.
  std::string a, b;
  for (const std::string& m : config.build_list) {
    if (m.rfind("aux_", 0) != 0) continue;
    const std::string& text = source_of(m);
    if (a.empty() &&
        text.find("subroutine " + m + "_extra1(") != std::string::npos) {
      a = m;
    } else if (b.empty() && text.find("aer_wrk(i) = aer_wrk(i) + wrk0") !=
                                std::string::npos) {
      b = m;
    }
  }
  ASSERT_FALSE(a.empty());
  ASSERT_FALSE(b.empty());

  // Budget 1: every insert evicts all but the new session and a pinned one.
  SessionStoreOptions opts;
  opts.max_bytes = 1;
  SessionStore store(opts);
  service::Router router(&store, service::RouterOptions{});
  std::string key = store.get_or_build(config, truth)->key();
  lint_body(router, key);  // seeds the first relint

  SplitMix64 rng(2525);
  for (int step = 0; step < 4; ++step) {
    const std::string base_key = key;
    const auto base_cg = store.lookup(base_key)->lint().summaries->cg;
    const std::string edited = step == 2 ? b : a;
    std::string& text = source_of(edited);
    if (step == 1) {
      replace_line_after(&text, "subroutine " + a + "_extra0(", "acc = acc *",
                         "    call " + a + "_extra1(acc, acc)");
      replace_line_after(&text, "subroutine " + a + "_extra1(", "acc = acc *",
                         "    call " + a + "_extra0(acc, acc)");
    } else if (step == 2) {
      replace_line_after(&text, "subroutine " + b + "_main(",
                         "aer_wrk(i) = aer_wrk(i) + wrk0",
                         "      wrk1 = aer_wrk(i) + wrk0");
    } else {
      text = edit_rewrite_in_place(text, &rng, step);
    }
    SessionStore::PatchEdit edit;
    edit.upserts.emplace_back(
        std::find_if(truth.begin(), truth.end(),
                     [&](const auto& e) { return &e.second == &text; })
            ->first,
        text);
    const SessionStore::PatchResult r = store.patch(base_key, edit);
    ASSERT_FALSE(r.rolled_back) << "step " << step;
    ASSERT_FALSE(r.full_rewalk) << "step " << step;
    key = r.session->key();
    if (step == 3) {
      // Evict the base (the head is pinned, so it stays) and drop every
      // handle on it: its copy of `a`, parsed at step 1, is freed before
      // the relint that is seeded from its lint result.
      store.pin(key);
      store.get_or_build(SessionConfig{}, small_corpus(53));
      store.unpin(key);
      ASSERT_EQ(store.lookup(base_key), nullptr);
    }

    const double reused = obs::global().counter("service.patch.lint_reuse");
    const double widened = obs::global().counter("lint.summary.cone_widened");
    EXPECT_EQ(lint_body(router, key), cold_lint_body(config, truth))
        << "step " << step;
    EXPECT_EQ(obs::global().counter("service.patch.lint_reuse"), reused + 1)
        << "step " << step << " did not relint from its base";
    const auto cg = store.lookup(key)->lint().summaries->cg;
    if (step == 1) {
      EXPECT_NE(cg, base_cg);
      EXPECT_LT(cg->scc_count, base_cg->scc_count);
    } else {
      EXPECT_EQ(cg, base_cg) << "step " << step;
    }
    if (step == 2) {
      EXPECT_GT(obs::global().counter("lint.summary.cone_widened"), widened);
    }
  }
}

/// Checks the most recent `lint` span: its direct children — symbols, call
/// graph, summaries, dataflow, the passes and the merge — cover at least 95%
/// of it.
void expect_lint_children_cover_it(const char* what) {
  const std::vector<obs::SpanRecord> spans = obs::global().spans();
  const auto lint =
      std::find_if(spans.rbegin(), spans.rend(),
                   [](const obs::SpanRecord& s) { return s.name == "lint"; });
  ASSERT_NE(lint, spans.rend()) << what;
  double children_us = 0.0;
  std::set<std::string> names;
  for (const obs::SpanRecord& span : spans) {
    if (span.parent != lint->id) continue;
    children_us += span.duration_us;
    names.insert(span.name);
  }
  for (const char* child : {"lint.symbols", "lint.callgraph", "lint.summaries",
                            "lint.dataflow", "lint.merge",
                            "lint.pass.use-before-def"}) {
    EXPECT_EQ(names.count(child), 1u) << what << ": " << child;
  }
  EXPECT_GE(children_us, 0.95 * lint->duration_us)
      << what << ": " << children_us << " of " << lint->duration_us << " us";
}

// A cold lint and a relint seeded from it account for their time: the
// children of each `lint` span add up to it.
TEST(IncrementalLint, LintChildSpansAddUpOnColdAndSeededLints) {
  ObsScope obs_on;
  CorpusSources corpus = corpus_sources(model::cesm_scale_spec());
  SessionStore store(SessionStoreOptions{});
  auto base = store.get_or_build(corpus.config, corpus.sources);
  base->lint();
  expect_lint_children_cover_it("cold lint");

  // A body edit of a compiled aux module, whose cone reaches cam_driver.
  const std::vector<std::string>& build_list = corpus.config.build_list;
  ASSERT_NE(std::find(build_list.begin(), build_list.end(), "aux_cam_000"),
            build_list.end());
  const auto victim = std::find_if(
      corpus.sources.begin(), corpus.sources.end(),
      [](const auto& e) { return e.first.ends_with("/aux_cam_000.F90"); });
  ASSERT_NE(victim, corpus.sources.end());
  SplitMix64 rng(99);
  victim->second = edit_rewrite_in_place(victim->second, &rng, 0);
  SessionStore::PatchEdit edit;
  edit.upserts.emplace_back(victim->first, victim->second);
  const SessionStore::PatchResult r = store.patch(base->key(), edit);
  ASSERT_FALSE(r.full_rewalk);
  r.session->lint();
  expect_lint_children_cover_it("seeded lint");
  EXPECT_GT(obs::global().counter("lint.modules_carried"), 0.0);
}

// ---------------------------------------------------------------------------
// Chaos: every meta.txn.splice fault lands in a rollback
// ---------------------------------------------------------------------------

class IncrementalChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultRegistry::global().disarm(); }
  void TearDown() override { fault::FaultRegistry::global().disarm(); }
};

TEST_F(IncrementalChaosTest, SpliceFaultAlwaysRollsBack) {
  SessionStore store(SessionStoreOptions{});
  const SessionConfig config;
  SourceList truth = small_corpus(49);
  auto session = store.get_or_build(config, truth);
  std::string key = session->key();
  std::string last_bytes = bytes_of(*session);
  std::uint64_t gen = 0;

  // Armed after the cold build (whose replay shares the same fault site).
  // Capped at 10 fires so the tail of the script proves recovery: once the
  // budget is spent, patches commit again.
  fault::FaultRegistry::global().arm("seed=7,meta.txn.splice:0.05:throw:0:10");

  SplitMix64 rng(777);
  std::size_t commits = 0, rollbacks = 0;
  for (int step = 0; step < 40; ++step) {
    SourceList next = truth;
    auto& [path, text] = next[rng.next() % next.size()];
    text = edit_touch(text, &rng, step);
    SessionStore::PatchEdit edit;
    edit.upserts.emplace_back(path, text);

    auto r = store.patch(key, edit);
    if (r.rolled_back) {
      ++rollbacks;
      // Fault fired mid-splice: base untouched, still resident, same bytes.
      EXPECT_EQ(r.session->key(), key);
      EXPECT_EQ(r.session->generation(), gen);
      ASSERT_EQ(r.errors.size(), 1u);
      EXPECT_EQ(r.errors[0].first, "");  // fault, not a parse error
      auto base = store.lookup(key);
      ASSERT_NE(base, nullptr);
      EXPECT_EQ(bytes_of(*base), last_bytes);
    } else {
      ++commits;
      truth = std::move(next);
      key = r.session->key();
      last_bytes = bytes_of(*r.session);
      ++gen;
      EXPECT_EQ(r.session->generation(), gen);
    }
  }
  // Read the fire count before disarm() clears the site table.
  EXPECT_GT(fault::FaultRegistry::global().fires("meta.txn.splice"), 0u);
  fault::FaultRegistry::global().disarm();

  EXPECT_GT(rollbacks, 0u);
  EXPECT_GT(commits, 0u);
  // The surviving session is still byte-correct.
  EXPECT_EQ(last_bytes, reference_bytes(config, truth));
}

// ---------------------------------------------------------------------------
// Snapshot-tier hygiene: rollbacks leave no orphan files
// ---------------------------------------------------------------------------

TEST_F(IncrementalChaosTest, RollbackLeavesNoOrphanSnapshotFiles) {
  TempDir dir("orphan");
  const SessionConfig config;
  SourceList truth = small_corpus(50);
  SessionStoreOptions opts;
  opts.snapshot_dir = dir.path.string();
  SessionStore store(opts);
  auto session = store.get_or_build(config, truth);
  const std::string key = session->key();

  // Rollback #1: parse error.
  SourceList broken = truth;
  broken[0].second = "module b\n  real :: :::\n";
  SessionStore::PatchEdit bad;
  bad.upserts.emplace_back(broken[0].first, broken[0].second);
  auto r1 = store.patch(key, bad);
  ASSERT_TRUE(r1.rolled_back);

  // Rollback #2: splice fault on an otherwise valid edit.
  SourceList faulted = truth;
  faulted[1].second += "! would commit\n";
  fault::FaultRegistry::global().arm("meta.txn.splice:1.0:throw:0:1");
  SessionStore::PatchEdit valid;
  valid.upserts.emplace_back(faulted[1].first, faulted[1].second);
  auto r2 = store.patch(key, valid);
  fault::FaultRegistry::global().disarm();
  ASSERT_TRUE(r2.rolled_back);

  // Neither rolled-back generation may have left a snapshot, a temp file,
  // or a corrupt sidecar on disk.
  meta::SnapshotCache cache(dir.path.string());
  EXPECT_FALSE(
      fs::exists(cache.path_for(SessionStore::snapshot_key(config, broken))));
  EXPECT_FALSE(
      fs::exists(cache.path_for(SessionStore::snapshot_key(config, faulted))));
  for (const auto& entry : fs::recursive_directory_iterator(dir.path)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
    EXPECT_EQ(name.find(".corrupt"), std::string::npos) << name;
  }
  // The base's own snapshot is still there (cold build persisted it).
  EXPECT_TRUE(
      fs::exists(cache.path_for(SessionStore::snapshot_key(config, truth))));
}

// ---------------------------------------------------------------------------
// Generation pins vs LRU eviction
// ---------------------------------------------------------------------------

TEST(IncrementalPin, PinBlocksEvictionUntilUnpinned) {
  SessionStoreOptions opts;
  opts.max_bytes = 1;  // every insertion is over budget
  SessionStore store(opts);
  const SessionConfig config;

  auto a = store.get_or_build(config, small_corpus(60));
  const std::string key_a = a->key();
  store.pin(key_a);
  EXPECT_TRUE(store.pinned(key_a));

  auto b = store.get_or_build(config, small_corpus(61));
  // b's insertion is over budget; a is pinned, so nothing can be evicted.
  EXPECT_NE(store.lookup(key_a), nullptr);

  auto c = store.get_or_build(config, small_corpus(62));
  // c evicts b (unpinned LRU victim); a survives again.
  EXPECT_NE(store.lookup(key_a), nullptr);
  EXPECT_EQ(store.lookup(b->key()), nullptr);

  store.unpin(key_a);
  EXPECT_FALSE(store.pinned(key_a));
  auto d = store.get_or_build(config, small_corpus(63));
  // With the pin gone, a is evictable.
  EXPECT_EQ(store.lookup(key_a), nullptr);
  EXPECT_NE(store.lookup(d->key()), nullptr);
}

TEST(IncrementalPin, EvictDuringPatchStressEightThreads) {
  SessionStoreOptions opts;
  opts.max_bytes = 1;  // maximum eviction pressure
  SessionStore store(opts);
  const SessionConfig config;
  const SourceList base_truth = small_corpus(70);
  const std::string base_key =
      store.get_or_build(config, base_truth)->key();

  constexpr int kIters = 12;
  std::vector<std::thread> threads;
  std::vector<int> patch_commits(4, 0);
  // 4 patchers race 4 churners that constantly build other sessions, so the
  // base is evicted whenever it is not pinned by an in-flight patch.
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        SourceList edited = base_truth;
        edited[0].second +=
            "! t" + std::to_string(t) + " i" + std::to_string(i) + "\n";
        SessionStore::PatchEdit edit;
        edit.upserts.emplace_back(edited[0].first, edited[0].second);
        try {
          auto r = store.patch(base_key, edit);
          if (!r.rolled_back) {
            EXPECT_EQ(bytes_of(*r.session), reference_bytes(config, edited));
            ++patch_commits[static_cast<std::size_t>(t)];
          }
        } catch (const Error&) {
          // Base evicted between patches: restore it and keep going. The
          // patch itself must never observe a half-evicted base — that is
          // what the pin guarantees.
          store.get_or_build(config, base_truth);
        }
      }
    });
  }
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        store.get_or_build(
            config, small_corpus(1000 + static_cast<std::uint64_t>(t) * 100 +
                                 static_cast<std::uint64_t>(i)));
      }
    });
  }
  for (auto& th : threads) th.join();
  int total = 0;
  for (int c : patch_commits) total += c;
  EXPECT_GT(total, 0);
  // All pins released: nothing should be stuck pinned after the dust settles.
  EXPECT_FALSE(store.pinned(base_key));
}

// ---------------------------------------------------------------------------
// Relink: body-only patches share the base generation's node table
// ---------------------------------------------------------------------------

/// A generated corpus as a sorted source list plus its build list.
struct GeneratedSources {
  SourceList sources;
  std::vector<std::string> compiled;
};

GeneratedSources generated_sources(const model::CorpusSpec& spec) {
  model::GeneratedCorpus corpus = model::generate_corpus(spec);
  GeneratedSources out;
  for (auto& f : corpus.files) {
    out.sources.emplace_back(f.path, std::move(f.text));
  }
  std::sort(out.sources.begin(), out.sources.end());
  out.compiled = std::move(corpus.compiled_modules);
  return out;
}

/// Index of the `pick`-th (mod count) source holding a `wrk1 = ` assignment
/// in a module on the build list: a generated aux module with a work chain.
std::size_t editable_file(const GeneratedSources& g, const SourceList& cur,
                          std::uint64_t pick) {
  std::vector<std::size_t> cands;
  for (std::size_t i = 0; i < cur.size(); ++i) {
    const std::string& text = cur[i].second;
    if (text.find(" wrk1 = ") == std::string::npos) continue;
    const std::size_t b = text.find("module ") + 7;
    const std::string name = text.substr(b, text.find('\n') - b);
    if (g.compiled.empty() ||
        std::find(g.compiled.begin(), g.compiled.end(), name) !=
            g.compiled.end()) {
      cands.push_back(i);
    }
  }
  return cands.at(pick % cands.size());
}

/// Number of `wrkK = ` assignment lines (K = 0, 1, ...) in `text`.
int wrk_chain_length(const std::string& text) {
  int n = 0;
  while (text.find(" wrk" + std::to_string(n) + " = ") != std::string::npos) {
    ++n;
  }
  return n;
}

/// Appends `term` to the `wrk<k> = ...` assignment, in place: no line moves,
/// so no interface signature changes.
std::string append_to_wrk(const std::string& text, int k,
                          const std::string& term) {
  const std::string lhs = "wrk" + std::to_string(k) + " = ";
  std::vector<std::string> lines = split_lines(text);
  for (auto& line : lines) {
    if (trimmed(line).rfind(lhs, 0) == 0) {
      line += term;
      return join_lines(lines);
    }
  }
  ADD_FAILURE() << "no assignment to wrk" << k;
  return text;
}

/// The body edit the cesm-session benchmark makes: `+ wrkJ * c` on the
/// assignment of wrkK, J < K. wrkJ is already named earlier in the module,
/// so the re-walked fragment interns the same keys and gains one edge.
std::string add_wrk_term(const std::string& text, SplitMix64* rng) {
  const auto n = static_cast<std::uint64_t>(wrk_chain_length(text));
  const std::uint64_t k = 1 + rng->next() % (n - 1);
  const std::uint64_t j = rng->next() % k;
  return append_to_wrk(text, static_cast<int>(k),
                       " + wrk" + std::to_string(j) + " * 0.25");
}

/// Relink-path suite: obs on (the tests read meta.txn.relinks), no fault
/// armed outside the test body.
class IncrementalRelink : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::FaultRegistry::global().disarm();
    obs::global().set_enabled(true);
  }
  void TearDown() override {
    fault::FaultRegistry::global().disarm();
    obs::global().set_enabled(false);
  }

  static double relinks() { return obs::global().counter("meta.txn.relinks"); }

  /// Runs `steps` chained `+ wrkJ * c` patches and checks every generation
  /// relinks over the cold build's node table; `check_every` compares each
  /// generation (not only the last) against a cold build.
  static void run_chain(const model::CorpusSpec& spec, bool use_build_list,
                        int steps, bool check_every, ThreadPool* pool) {
    const GeneratedSources g = generated_sources(spec);
    SessionConfig config;
    if (use_build_list) config.build_list = g.compiled;
    SessionStoreOptions opts;
    opts.build_pool = pool;
    SessionStore store(opts);
    SourceList truth = g.sources;
    auto cold = store.get_or_build(config, truth);
    const auto table = cold->metagraph().node_table();
    std::string key = cold->key();
    const double relinks_before = relinks();

    SplitMix64 rng(spec.seed * 31 + 7);
    std::shared_ptr<const Session> head;
    for (int step = 0; step < steps; ++step) {
      auto& [path, text] = truth[editable_file(g, truth, rng.next())];
      text = add_wrk_term(text, &rng);
      SessionStore::PatchEdit edit;
      edit.upserts.emplace_back(path, text);
      auto r = store.patch(key, edit);
      ASSERT_FALSE(r.rolled_back) << "step " << step;
      EXPECT_FALSE(r.full_rewalk) << "step " << step;
      EXPECT_EQ(r.rebuilt_modules, 1u) << "step " << step;
      EXPECT_EQ(r.splice, meta::Splice::kRelink) << "step " << step;
      EXPECT_EQ(r.session->metagraph().node_table(), table) << "step " << step;
      head = r.session;
      key = head->key();
      if (check_every || step + 1 == steps) {
        SessionStoreOptions ref_opts;
        ref_opts.build_pool = pool;
        SessionStore ref(ref_opts);
        ASSERT_EQ(bytes_of(*head), bytes_of(*ref.get_or_build(config, truth)))
            << "relinked graph diverged from a cold build; step " << step;
      }
    }
    EXPECT_EQ(relinks() - relinks_before, static_cast<double>(steps));
  }
};

TEST_F(IncrementalRelink, ChainedBodyEditsMatchColdBuildAtDefaultScale) {
  run_chain(model::CorpusSpec{}, /*use_build_list=*/false, /*steps=*/6,
            /*check_every=*/true, nullptr);
}

TEST_F(IncrementalRelink, ChainedBodyEditsMatchColdBuildAtCesmScale) {
  ThreadPool pool(4);
  run_chain(model::cesm_scale_spec(), /*use_build_list=*/true, /*steps=*/3,
            /*check_every=*/false, &pool);
}

TEST_F(IncrementalRelink, NodeTableEditsFallBackToReplay) {
  const GeneratedSources g = generated_sources(model::CorpusSpec{});
  const SessionConfig config;
  SessionStore store(SessionStoreOptions{});
  const std::string base_key = store.get_or_build(config, g.sources)->key();

  // Each edit is body-only (no interface signature changes) but changes what
  // the module's walk interns, so the base's node table cannot be kept.
  std::size_t labelled = g.sources.size();
  for (std::size_t i = 0; i < g.sources.size(); ++i) {
    const std::string& text = g.sources[i].second;
    if (text.find("call outfld('AUX") != std::string::npos &&
        wrk_chain_length(text) >= 3) {
      labelled = i;
      break;
    }
  }
  ASSERT_LT(labelled, g.sources.size());
  const std::string& text = g.sources[labelled].second;
  const int n = wrk_chain_length(text);
  const std::vector<std::pair<std::string, std::string>> edits = {
      // A variable the module never named before: the loop index.
      {"new variable", append_to_wrk(text, 1, " + i * 0.25")},
      // wrk<n-1> is first seen on its own, later line; naming it on wrk1's
      // line moves its first sighting (and its intern order) earlier.
      {"earlier first sighting",
       append_to_wrk(text, 1, " + wrk" + std::to_string(n - 1) + " * 0.25")},
      // Same variable, different output label: an io op changes.
      {"outfld label",
       [&] {
         std::string t = text;
         const std::size_t at = t.find("call outfld('AUX") + 16;
         t.insert(t.find('\'', at), "X");
         return t;
       }()},
  };
  const double relinks_before = relinks();
  for (const auto& [what, edited] : edits) {
    ASSERT_NE(edited, text) << what;
    SourceList truth = g.sources;
    truth[labelled].second = edited;
    SessionStore::PatchEdit edit;
    edit.upserts.emplace_back(truth[labelled].first, edited);
    auto r = store.patch(base_key, edit);
    ASSERT_FALSE(r.rolled_back) << what;
    EXPECT_FALSE(r.full_rewalk) << what;
    EXPECT_EQ(r.splice, meta::Splice::kReplay) << what;
    EXPECT_EQ(bytes_of(*r.session), reference_bytes(config, truth)) << what;
  }
  EXPECT_EQ(relinks(), relinks_before);
}

TEST_F(IncrementalRelink, SharedNodeTableOutlivesEvictedGenerations) {
  const GeneratedSources g = generated_sources(model::CorpusSpec{});
  const SessionConfig config;
  SessionStoreOptions opts;
  opts.max_bytes = 1;  // every insertion evicts whatever is not pinned
  SessionStore store(opts);
  SourceList truth = g.sources;

  std::vector<std::weak_ptr<const Session>> generations;
  std::weak_ptr<const meta::Metagraph::NodeTable> table;
  std::string key;
  {
    auto cold = store.get_or_build(config, truth);
    table = cold->metagraph().node_table();
    generations.push_back(cold);
    key = cold->key();
  }
  SplitMix64 rng(99);
  std::shared_ptr<const Session> head;
  for (int step = 0; step < 4; ++step) {
    auto& [path, text] = truth[editable_file(g, truth, rng.next())];
    text = add_wrk_term(text, &rng);
    SessionStore::PatchEdit edit;
    edit.upserts.emplace_back(path, text);
    auto r = store.patch(key, edit);
    ASSERT_FALSE(r.rolled_back);
    ASSERT_EQ(r.splice, meta::Splice::kRelink);
    head = std::move(r.session);
    generations.push_back(head);
    key = head->key();
  }
  // An unrelated session evicts every generation; only `head` is still held.
  store.get_or_build(config, small_corpus(5));
  EXPECT_EQ(store.lookup(key), nullptr);
  for (std::size_t i = 0; i + 1 < generations.size(); ++i) {
    EXPECT_TRUE(generations[i].expired()) << "generation " << i;
  }
  // The table the cold build interned lives on in the last generation, and
  // every read of it still answers like a cold build.
  ASSERT_FALSE(table.expired());
  EXPECT_EQ(head->metagraph().node_table(), table.lock());
  EXPECT_EQ(bytes_of(*head), reference_bytes(config, truth));
}

TEST_F(IncrementalRelink, SpliceFaultOnRelinkPathRollsBack) {
  const GeneratedSources g = generated_sources(model::CorpusSpec{});
  const SessionConfig config;
  SessionStore store(SessionStoreOptions{});
  auto base = store.get_or_build(config, g.sources);
  const std::string base_bytes = bytes_of(*base);

  SourceList truth = g.sources;
  SplitMix64 rng(3);
  auto& [path, text] = truth[editable_file(g, truth, rng.next())];
  text = add_wrk_term(text, &rng);
  SessionStore::PatchEdit edit;
  edit.upserts.emplace_back(path, text);

  // Armed after the cold build; fires on the patch's first splice check.
  fault::FaultRegistry::global().arm("meta.txn.splice:1.0:throw:0:1");
  auto failed = store.patch(base->key(), edit);
  EXPECT_EQ(fault::FaultRegistry::global().fires("meta.txn.splice"), 1u);
  fault::FaultRegistry::global().disarm();
  ASSERT_TRUE(failed.rolled_back);
  EXPECT_EQ(failed.session->key(), base->key());
  EXPECT_EQ(failed.session->generation(), 0u);
  ASSERT_EQ(failed.errors.size(), 1u);
  EXPECT_EQ(failed.errors[0].first, "");  // fault, not a parse error
  auto resident = store.lookup(base->key());
  ASSERT_NE(resident, nullptr);
  EXPECT_EQ(bytes_of(*resident), base_bytes);
  EXPECT_EQ(store.lookup(SessionStore::compute_key(config, truth)), nullptr);

  // Disarmed, the same edit commits on the relink path.
  auto committed = store.patch(base->key(), edit);
  ASSERT_FALSE(committed.rolled_back);
  EXPECT_EQ(committed.splice, meta::Splice::kRelink);
  EXPECT_EQ(bytes_of(*committed.session), reference_bytes(config, truth));
  EXPECT_EQ(bytes_of(*base), base_bytes);
}

}  // namespace
}  // namespace rca
