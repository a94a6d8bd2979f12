// Resident session store for the RCA query service.
//
// A *session* is a parsed corpus plus its built metagraph, keyed by a
// content hash over the exact inputs that determine the graph (the key of
// its on-disk SnapshotCache entry too): every (path, text) source pair plus
// the build configuration. The store keeps sessions hot so repeated slice/
// community/rank/lint queries never re-pay process startup or graph
// materialization — the cost the paper's whole design fights.
//
// It is also the one path outside engine::Pipeline that turns a source tree
// into a metagraph: `rca-tool graph`, `watch`, `serve` and `refine` all
// build through it, so a snapshot any of them writes warm-starts the rest.
//
// Behaviour:
//   * LRU eviction under a configurable byte budget (sources + graph
//     estimate, accounted at insertion);
//   * single-flight deduplication: N concurrent identical build requests do
//     ONE build, the rest wait on the first builder's result;
//   * warm start from an existing SnapshotCache directory: a snapshot hit
//     skips parse+build entirely (the session lazily re-parses only if a
//     lint query later needs ASTs).
//
// Counters (obs registry):
//   service.session.hits        requests served without a parse+build
//                               (resident hit, or snapshot warm start)
//   service.session.misses      requests that paid a full parse+build
//   service.session.builds      sessions constructed (warm or cold)
//   service.session.snapshot_warm  subset of hits warm-started from disk
//   service.session.singleflight   waiters coalesced onto an in-progress build
//   service.session.evictions   LRU evictions
//   service.session.parses      corpus parses performed (front end runs)
//   service.session.retries     cold builds retried after transient I/O
//   service.patch.requests      patch() calls
//   service.patch.commits       patches committed (new generation published)
//   service.patch.rollbacks     patches rolled back (parse error or fault);
//                               the base session is untouched
//   service.patch.noops         patches whose edited corpus hashed to an
//                               already-resident session
// Gauges: service.session.count, service.session.bytes.
//
// Incremental sessions: patch() takes a resident base session plus a sparse
// edit (upserted/removed files), re-parses only the changed files, and runs a
// meta::run_transaction to splice cached fragments with fresh ones — the
// committed graph is byte-identical to a from-scratch build of the edited
// corpus (pinned by tests/incremental_test.cpp). Cold builds run the same
// transaction with no base. A coverage-filtered session keeps no fragment
// state (its graph depends on a runtime coverage run), so its patches re-walk
// every kept module — still parsing only the changed files. The base session
// is pinned against LRU eviction for the duration and is never mutated: a
// failed patch (parse error, injected fault at service.patch.parse or
// meta.txn.splice) rolls back by simply not publishing, leaving the base
// resident at its prior generation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/passes.hpp"
#include "lang/ast.hpp"
#include "meta/metagraph.hpp"
#include "meta/snapshot_cache.hpp"
#include "meta/transaction.hpp"

namespace rca {
class ThreadPool;
}

namespace rca::service {

/// Build configuration for one session; `rca-tool graph` maps its flags
/// onto these fields one to one.
struct SessionConfig {
  std::vector<std::string> build_list;  // empty = every module
  bool coverage = false;                // interpreter-driven coverage filter
  int coverage_steps = 2;
  bool prune_dead_stores = false;
  /// Sharpen dead-store pruning with interprocedural mod/ref summaries
  /// (meta::BuilderOptions::summary_informed_pruning). Forces patches into a
  /// full re-walk — fragments depend on other modules' bodies under it.
  bool summary_informed_pruning = false;
};

using SourceList = std::vector<std::pair<std::string, std::string>>;

/// One resident corpus + metagraph. Immutable after construction except for
/// the lazily computed AST/lint caches (guarded internally; thread-safe).
class Session {
 public:
  Session(std::string key, SessionConfig config, SourceList sources);

  const std::string& key() const { return key_; }
  const SessionConfig& config() const { return config_; }
  const SourceList& sources() const { return sources_; }
  const meta::Metagraph& metagraph() const { return *mg_; }
  /// True when the graph came from the snapshot cache (no parse happened).
  bool warm_started() const { return warm_started_; }
  /// Approximate resident footprint, fixed at build time (LRU accounting).
  std::size_t bytes() const { return bytes_; }
  /// 0 for cold/warm-started sessions; each committed patch publishes a new
  /// session at the base's generation + 1.
  std::uint64_t generation() const { return generation_; }
  /// Per-module fragment state for incremental patching; null when the
  /// session was warm-started from a snapshot or built under a coverage
  /// filter (such sessions patch by a full re-walk).
  const std::shared_ptr<const meta::TxnState>& txn_state() const {
    return txn_state_;
  }
  /// Parse failures from the front end run. Forces a parse if none has
  /// happened yet (warm-started sessions), so the reference is stable.
  const std::vector<std::pair<std::string, std::string>>& parse_errors() const;

  /// Parsed modules (build-list filtered). Forces a parse like
  /// parse_errors(); the reference is stable afterwards. Campaigns use this
  /// to mine scenario ground-truth sites from the session's own ASTs.
  const std::vector<const lang::Module*>& modules() const;

  /// Source paths the front end could not parse — the session serves a
  /// *partial* corpus and responses must say so ("degraded": true). Unlike
  /// parse_errors() this never forces a parse: a warm-started session whose
  /// snapshot built cleanly is not degraded, and asking must stay free.
  std::vector<std::string> skipped_modules() const;

  /// Lint result over the session's modules, computed once and cached.
  /// Forces a parse when the session was warm-started from a snapshot. Its
  /// per-module runs carry their rendered records, so /v1/lint assembles
  /// the report from them (AnalysisResult::append_report).
  const analysis::AnalysisResult& lint() const;

 private:
  friend class SessionStore;

  /// Parses sources_ into files_/modules_ if not done yet (thread-safe);
  /// counts service.session.parses when a parse actually runs.
  void ensure_parsed(ThreadPool* pool) const;
  /// Parses every source into files_ and parse_errors_ (counts
  /// service.session.parses). Caller holds lazy_mu_ or owns the session.
  void parse_all(ThreadPool* pool) const;
  /// Indexes files_' build-list modules into modules_ (corpus order), marks
  /// the session parsed, and returns the modules as transaction inputs:
  /// dirty when their file is in `stale`, every one when `stale` is null.
  std::vector<meta::TxnInput> stage_modules(
      const std::unordered_set<std::string>* stale) const;
  void finalize_bytes();
  /// The lint result if lint() already ran, else null (never forces).
  std::shared_ptr<const analysis::AnalysisResult> cached_lint() const;

  /// Seed for an incremental lint of a patched session: the base session's
  /// lint result, carried by reference, plus the modules the patch made
  /// dirty. lint() passes both to PassManager's relint, which re-analyzes
  /// the dirty modules and their summary cone and shares the base's call
  /// graph, summaries and per-module diagnostic runs for the rest; it reads
  /// only the base result's pointer-free parts, never the base's ASTs, and
  /// resolves names through this session's carried symbol tables
  /// (meta::TxnState::tables). Then lint() drops the seed. Only set when the
  /// transaction did not escalate to a full re-walk — the same
  /// interface-stability condition that makes the carried tables and
  /// per-module reuse exact.
  struct LintSeed {
    std::shared_ptr<const analysis::AnalysisResult> base;
    /// Modules whose files changed (parallel to modules_).
    std::vector<bool> dirty;
  };

  std::string key_;
  SessionConfig config_;
  SourceList sources_;
  // Shared so a touch-edit patch whose transaction proved the graph
  // unchanged can alias the base session's graph (meta::TxnResult::mg).
  std::shared_ptr<const meta::Metagraph> mg_;
  bool warm_started_ = false;
  std::size_t bytes_ = 0;
  std::uint64_t generation_ = 0;
  std::shared_ptr<const meta::TxnState> txn_state_;

  mutable std::mutex lazy_mu_;
  mutable bool parsed_ = false;
  // shared_ptr so a patched session can alias the base's unchanged ASTs
  // instead of re-parsing them (ASTs are move-only unique_ptr trees).
  mutable std::vector<std::shared_ptr<const lang::SourceFile>> files_;
  mutable std::vector<const lang::Module*> modules_;  // build-list filtered
  mutable std::vector<std::pair<std::string, std::string>> parse_errors_;
  mutable std::shared_ptr<const analysis::AnalysisResult> lint_;
  mutable std::optional<LintSeed> lint_seed_;
  mutable ThreadPool* parse_pool_ = nullptr;  // set by the store
};

struct SessionStoreOptions {
  /// Resident byte budget across all sessions; the newest session is always
  /// kept even if it alone exceeds the budget. 0 = unlimited.
  std::size_t max_bytes = 512ull * 1024 * 1024;
  /// Snapshot-cache directory for warm starts and build persistence; empty
  /// disables the disk tier.
  std::string snapshot_dir;
  /// Pool for the parallel front end (parse + metagraph build). May be null.
  ThreadPool* build_pool = nullptr;
  /// Transient-I/O retries for a cold build (single-flight holder only;
  /// waiters coalesce onto whatever the holder's retries produce). Backoff
  /// is jittered_backoff_ms (support/backoff.hpp): exponential from
  /// backoff_base_ms, capped at backoff_cap_ms, jittered per (key, attempt).
  /// Counter: service.session.retries.
  int build_retries = 3;
  int backoff_base_ms = 10;
  int backoff_cap_ms = 200;
};

class SessionStore {
 public:
  explicit SessionStore(SessionStoreOptions opts);

  /// Content hash for (config, sources) — the session identity and its
  /// snapshot-cache key. Exposed so clients and tests can predict keys.
  static meta::SnapshotKey snapshot_key(const SessionConfig& config,
                                        const SourceList& sources);
  static std::string compute_key(const SessionConfig& config,
                                 const SourceList& sources);

  /// Returns the resident session for the key, or builds it (single-flight:
  /// concurrent callers with the same key coalesce onto one build). Throws
  /// rca::Error on build failure (every coalesced waiter sees the error).
  std::shared_ptr<const Session> get_or_build(const SessionConfig& config,
                                              SourceList sources);

  /// Resident lookup by session key; null when not resident (the caller
  /// decides whether that is a 404 or a rebuild).
  std::shared_ptr<const Session> lookup(const std::string& key);

  /// Sparse edit applied to a resident base session's sources.
  struct PatchEdit {
    /// (path, new text) — replaces the file if present, inserts it (sorted
    /// by path) otherwise. Upserts whose text matches the current file are
    /// ignored.
    SourceList upserts;
    /// Paths to delete; removing an unknown path is an error.
    std::vector<std::string> removes;
  };

  struct PatchResult {
    /// The committed session — or the untouched base when rolled_back.
    std::shared_ptr<const Session> session;
    bool rolled_back = false;
    /// True when the edited corpus hashed to an already-resident session
    /// (including the no-op edit) — nothing was parsed or built.
    bool resident_hit = false;
    bool full_rewalk = false;
    /// How the transaction produced the graph: replay, relink over the
    /// base's node table, or alias of the base graph.
    meta::Splice splice = meta::Splice::kReplay;
    std::size_t rebuilt_modules = 0;
    std::size_t reused_fragments = 0;
    std::size_t spliced_nodes = 0;
    /// (path, message) parse failures that forced the rollback; a fault
    /// injected mid-splice reports one entry with an empty path.
    std::vector<std::pair<std::string, std::string>> errors;
  };

  /// Applies `edit` to the resident session `base_key` and publishes the
  /// result as a new resident session at generation + 1 (also persisted to
  /// the snapshot tier). Only the changed files are re-parsed and re-walked;
  /// the committed graph is byte-identical to a cold build of the edited
  /// corpus. If any changed file fails to parse — or a fault fires at
  /// service.patch.parse / meta.txn.splice — the patch rolls back: the base
  /// session stays resident and unchanged and the result carries the errors.
  /// Throws rca::Error when base_key is not resident (the caller's 404).
  /// No single-flight: concurrent identical patches race benignly (same key,
  /// first insert wins).
  PatchResult patch(const std::string& base_key, const PatchEdit& edit);

  /// Generation pin: while held, `key` is exempt from LRU eviction (patch()
  /// pins its base for the transaction's duration). Recursive; unpin() must
  /// balance pin().
  void pin(const std::string& key);
  void unpin(const std::string& key);
  bool pinned(const std::string& key) const;

  // Introspection (health endpoint, tests).
  std::size_t session_count() const;
  std::size_t resident_bytes() const;
  /// Resident sessions serving a partial corpus (skipped modules). Never
  /// forces a parse — see Session::skipped_modules().
  std::size_t degraded_session_count() const;
  /// Resident keys in LRU order, most recently used first.
  std::vector<std::string> keys_by_recency() const;

  const SessionStoreOptions& options() const { return opts_; }

 private:
  /// Retry shell around build_session_once: fault::TransientError is retried
  /// up to opts_.build_retries times with jittered capped backoff.
  std::shared_ptr<Session> build_session(const std::string& key,
                                         const SessionConfig& config,
                                         SourceList sources);
  std::shared_ptr<Session> build_session_once(const std::string& key,
                                              const SessionConfig& config,
                                              const SourceList& sources);
  /// The incremental core of patch(): parse changed files, assemble the
  /// patched session, build it, publish it. Throws fault::FaultInjected /
  /// rca::Error on rollback paths (patch() catches).
  PatchResult patch_build(const std::shared_ptr<const Session>& base,
                          const std::string& key, SourceList sources,
                          const std::vector<std::string>& changed,
                          const std::vector<std::string>& removed);
  /// The one metagraph build behind the store, for cold builds (`base`
  /// null) and patches alike: stages `session`'s parsed files, runs the
  /// coverage pass when its config asks for one, and commits one
  /// meta::run_transaction over `base`'s fragment state. A patch's dirty
  /// modules are those of the files in `stale` (a cold build's are all);
  /// a patch that kept every interface seeds an incremental lint from the
  /// base. Charges the session's bytes; publishing is the caller's.
  meta::TxnStats build_graph(Session& session, const Session* base,
                             const std::unordered_set<std::string>& stale);
  /// Caller holds mu_. Returns the sessions evicted to make room; the
  /// caller releases them after unlocking, so their destruction never
  /// blocks a concurrent lookup.
  [[nodiscard]] std::vector<std::shared_ptr<const Session>> insert_resident(
      const std::string& key, std::shared_ptr<const Session> session);
  void publish_gauges() const;

  SessionStoreOptions opts_;
  std::optional<meta::SnapshotCache> cache_;

  mutable std::mutex mu_;
  struct Entry {
    std::shared_ptr<const Session> session;
    std::list<std::string>::iterator lru_it;
  };
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recently used
  std::unordered_map<std::string, int> pins_;  // key -> pin refcount
  std::size_t total_bytes_ = 0;
  std::unordered_map<std::string,
                     std::shared_future<std::shared_ptr<const Session>>>
      building_;
};

}  // namespace rca::service
