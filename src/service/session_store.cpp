#include "service/session_store.hpp"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <thread>
#include <unordered_set>
#include <utility>

#include "analysis/summaries.hpp"
#include "cov/coverage_filter.hpp"
#include "fault/fault.hpp"
#include "interp/interpreter.hpp"
#include "meta/builder.hpp"
#include "obs/obs.hpp"
#include "service/front_end.hpp"
#include "support/backoff.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/thread_pool.hpp"

namespace rca::service {

namespace {

std::size_t approx_graph_bytes(const meta::Metagraph& mg) {
  std::size_t bytes =
      mg.graph().edge_count() * 16 + mg.node_count() * 64;
  for (const auto& info : mg.all_info()) {
    bytes += info.unique_name.size() + info.canonical_name.size() +
             info.module.size() + info.subprogram.size();
  }
  for (const auto& [label, nodes] : mg.io_map()) {
    bytes += label.size() + nodes.size() * 8;
  }
  return bytes;
}

}  // namespace

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Session::Session(std::string key, SessionConfig config, SourceList sources)
    : key_(std::move(key)),
      config_(std::move(config)),
      sources_(std::move(sources)) {}

void Session::finalize_bytes() {
  bytes_ = approx_graph_bytes(*mg_);
  for (const auto& [path, text] : sources_) {
    bytes_ += path.size() + text.size();
  }
  if (txn_state_) {
    // Fragment op logs are retained for incremental patching; account for
    // them so the LRU budget stays honest. Shared fragments are charged to
    // every generation holding them — deliberately conservative.
    for (const auto& e : txn_state_->entries) {
      if (!e.frag) continue;
      bytes_ += e.frag->ops.size() * sizeof(meta::Fragment::Op);
      for (const auto& k : e.frag->keys) {
        bytes_ += k.module.size() + k.subprogram.size() + k.canonical.size() +
                  16;
      }
    }
  }
}

void Session::ensure_parsed(ThreadPool* pool) const {
  std::lock_guard<std::mutex> lock(lazy_mu_);
  if (parsed_) return;
  parse_all(pool);
  stage_modules(nullptr);
}

void Session::parse_all(ThreadPool* pool) const {
  obs::count("service.session.parses");
  std::vector<lang::SourceFile> parsed =
      parse_sources(sources_, pool, &parse_errors_);
  files_.reserve(parsed.size());
  for (auto& f : parsed) {
    files_.push_back(std::make_shared<const lang::SourceFile>(std::move(f)));
  }
}

std::vector<meta::TxnInput> Session::stage_modules(
    const std::unordered_set<std::string>* stale) const {
  std::vector<meta::TxnInput> inputs;
  modules_.clear();
  const BuildListFilter build_list(config_.build_list);
  for (const auto& f : files_) {
    const bool dirty = stale == nullptr || stale->count(f->path) != 0;
    for (const auto& m : f->modules) {
      if (!build_list.contains(m.name)) continue;
      modules_.push_back(&m);
      inputs.push_back(meta::TxnInput{f->path, &m, dirty, f});
    }
  }
  parsed_ = true;
  return inputs;
}

std::vector<std::string> Session::skipped_modules() const {
  std::lock_guard<std::mutex> lock(lazy_mu_);
  // A session that never parsed (warm snapshot start) built its graph from a
  // corpus that parsed cleanly when the snapshot was written — it is not
  // degraded, and reporting so must not force a parse (the warm tier's whole
  // point is skipping that cost).
  if (!parsed_) return {};
  std::vector<std::string> skipped;
  skipped.reserve(parse_errors_.size());
  for (const auto& [path, message] : parse_errors_) skipped.push_back(path);
  return skipped;
}

const std::vector<const lang::Module*>& Session::modules() const {
  ensure_parsed(parse_pool_);
  return modules_;
}

const std::vector<std::pair<std::string, std::string>>& Session::parse_errors()
    const {
  // Force the parse first (like lint() does): once parsed_ is set the vector
  // is never mutated again, so the returned reference cannot race a
  // concurrent ensure_parsed() on another thread.
  ensure_parsed(parse_pool_);
  return parse_errors_;
}

std::shared_ptr<const analysis::AnalysisResult> Session::cached_lint() const {
  std::lock_guard<std::mutex> lock(lazy_mu_);
  return lint_;
}

const analysis::AnalysisResult& Session::lint() const {
  ensure_parsed(parse_pool_);
  std::lock_guard<std::mutex> lock(lazy_mu_);
  if (lint_) return *lint_;
  const analysis::PassManager pm = analysis::PassManager::default_passes();
  analysis::AnalysisResult result;
  if (lint_seed_ && lint_seed_->dirty.size() == modules_.size()) {
    // Incremental: re-analyze only the modules whose files changed (plus
    // the caller cone of any module whose summaries changed) and share
    // everything else with the base's result. Exact because the seed is
    // only installed when the patch's transaction saw every interface
    // signature unchanged — which is also what lets the transaction's
    // carried symbol tables stand for this generation's.
    result = pm.run(modules_, txn_state_->tables->symbols, *lint_seed_->base,
                    lint_seed_->dirty);
    obs::count("service.patch.lint_reuse");
  } else {
    result = pm.run(modules_);
  }
  result.set_parse_errors(parse_errors_);
  lint_ = std::make_shared<const analysis::AnalysisResult>(std::move(result));
  lint_seed_.reset();  // drops this session's hold on the base's lint
  return *lint_;
}

// ---------------------------------------------------------------------------
// SessionStore
// ---------------------------------------------------------------------------

SessionStore::SessionStore(SessionStoreOptions opts) : opts_(std::move(opts)) {
  if (!opts_.snapshot_dir.empty()) cache_.emplace(opts_.snapshot_dir);
}

meta::SnapshotKey SessionStore::snapshot_key(const SessionConfig& config,
                                             const SourceList& sources) {
  meta::SnapshotKey key;
  key.add("rca-graph-snapshot-v3");
  key.add_u64(config.coverage ? 1 : 0);
  key.add_u64(static_cast<std::uint64_t>(config.coverage_steps));
  key.add_u64(config.prune_dead_stores ? 1 : 0);
  key.add_u64(config.summary_informed_pruning ? 1 : 0);
  for (const auto& name : config.build_list) key.add(name);
  for (const auto& [path, text] : sources) {
    key.add(path);
    key.add(text);
  }
  return key;
}

std::string SessionStore::compute_key(const SessionConfig& config,
                                      const SourceList& sources) {
  return snapshot_key(config, sources).hex();
}

std::shared_ptr<const Session> SessionStore::lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  obs::count("service.session.hits");
  return it->second.session;
}

std::shared_ptr<const Session> SessionStore::get_or_build(
    const SessionConfig& config, SourceList sources) {
  const std::string key = compute_key(config, sources);

  std::unique_lock<std::mutex> lock(mu_);
  if (auto it = entries_.find(key); it != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    obs::count("service.session.hits");
    return it->second.session;
  }
  if (auto fit = building_.find(key); fit != building_.end()) {
    // Single-flight: somebody is already building this exact session — wait
    // for their result instead of duplicating the work.
    auto fut = fit->second;
    obs::count("service.session.singleflight");
    lock.unlock();
    return fut.get();  // rethrows the builder's error, if any
  }
  std::promise<std::shared_ptr<const Session>> promise;
  building_.emplace(key, promise.get_future().share());
  lock.unlock();

  std::shared_ptr<Session> session;
  try {
    session = build_session(key, config, std::move(sources));
  } catch (...) {
    auto err = std::current_exception();
    {
      std::lock_guard<std::mutex> relock(mu_);
      building_.erase(key);
    }
    promise.set_exception(err);
    throw;
  }
  std::vector<std::shared_ptr<const Session>> evicted;
  {
    std::lock_guard<std::mutex> relock(mu_);
    evicted = insert_resident(key, session);
    building_.erase(key);
  }
  promise.set_value(session);
  return session;  // `evicted` is released here, outside mu_
}

std::shared_ptr<Session> SessionStore::build_session(const std::string& key,
                                                     const SessionConfig& config,
                                                     SourceList sources) {
  // Transient I/O (EINTR/EIO-class, surfaced as fault::TransientError) during
  // a cold build is retried with capped exponential backoff instead of
  // failing every coalesced single-flight waiter. Jitter is derived from the
  // key's FNV-1a hash and the attempt, so fault-injection runs replay
  // byte-identically on any platform.
  const std::uint64_t key_hash = fnv1a64(key);
  for (int attempt = 0;; ++attempt) {
    try {
      return build_session_once(key, config, sources);
    } catch (const fault::TransientError&) {
      if (attempt >= opts_.build_retries) throw;
      obs::count("service.session.retries");
      std::this_thread::sleep_for(std::chrono::milliseconds(
          jittered_backoff_ms(static_cast<std::uint64_t>(attempt),
                              opts_.backoff_base_ms, opts_.backoff_cap_ms,
                              /*seed=*/0, key_hash)));
    }
  }
}

std::shared_ptr<Session> SessionStore::build_session_once(
    const std::string& key, const SessionConfig& config,
    const SourceList& sources) {
  obs::Span span("service.session.build");
  span.attr("key", key);
  RCA_FAULT_POINT("service.build.io");
  auto session = std::make_shared<Session>(key, config, sources);
  session->parse_pool_ = opts_.build_pool;

  // Warm tier: the on-disk snapshot cache holds the finished graph for this
  // exact content key — loading it skips parse+build entirely.
  const meta::SnapshotKey skey = snapshot_key(config, session->sources());
  if (cache_) {
    if (std::optional<meta::Metagraph> mg = cache_->try_load(skey)) {
      session->mg_ = std::make_shared<const meta::Metagraph>(std::move(*mg));
      session->warm_started_ = true;
      session->finalize_bytes();
      obs::count("service.session.builds");
      obs::count("service.session.snapshot_warm");
      obs::count("service.session.hits");
      span.attr("warm", true);
      return session;
    }
  }

  obs::count("service.session.misses");
  // Unpublished, so no other thread can see the parse.
  session->parse_all(opts_.build_pool);
  build_graph(*session, nullptr, {});
  if (cache_) cache_->store(skey, *session->mg_);
  span.attr("warm", false);
  span.attr("nodes", session->mg_->node_count());
  return session;
}

std::vector<std::shared_ptr<const Session>> SessionStore::insert_resident(
    const std::string& key, std::shared_ptr<const Session> session) {
  // Caller holds mu_.
  std::vector<std::shared_ptr<const Session>> evicted;
  if (entries_.count(key) != 0) return evicted;  // lost a race; keep ours
  lru_.push_front(key);
  total_bytes_ += session->bytes();
  entries_.emplace(key, Entry{std::move(session), lru_.begin()});
  // Evict least-recently-used entries over budget; the entry just inserted
  // is always kept (a session larger than the whole budget must still serve
  // the request that built it), and pinned entries are skipped — a patch in
  // flight must not have its base dropped out from under it.
  while (opts_.max_bytes != 0 && total_bytes_ > opts_.max_bytes &&
         lru_.size() > 1) {
    // Least-recently-used unpinned entry, excluding the front (just
    // inserted). If everything else is pinned there is nothing to evict.
    auto vit = lru_.end();
    for (auto it = std::prev(lru_.end()); it != lru_.begin(); --it) {
      if (pins_.find(*it) == pins_.end()) {
        vit = it;
        break;
      }
    }
    if (vit == lru_.end()) break;
    auto it = entries_.find(*vit);
    lru_.erase(vit);
    total_bytes_ -= it->second.session->bytes();
    evicted.push_back(std::move(it->second.session));
    entries_.erase(it);
    obs::count("service.session.evictions");
  }
  publish_gauges();
  return evicted;
}

void SessionStore::pin(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  ++pins_[key];
}

void SessionStore::unpin(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pins_.find(key);
  if (it == pins_.end()) return;
  if (--it->second <= 0) pins_.erase(it);
}

bool SessionStore::pinned(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return pins_.find(key) != pins_.end();
}

// ---------------------------------------------------------------------------
// Incremental patching
// ---------------------------------------------------------------------------

namespace {

/// Balances pin()/unpin() across every patch exit path (including throws).
class ScopedPin {
 public:
  ScopedPin(SessionStore& store, std::string key)
      : store_(store), key_(std::move(key)) {
    store_.pin(key_);
  }
  ~ScopedPin() { store_.unpin(key_); }
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  SessionStore& store_;
  std::string key_;
};

}  // namespace

SessionStore::PatchResult SessionStore::patch(const std::string& base_key,
                                              const PatchEdit& edit) {
  obs::Span span("service.patch");
  span.attr("base", base_key);
  obs::count("service.patch.requests");

  std::shared_ptr<const Session> base = lookup(base_key);
  if (!base) throw Error("no resident session with key " + base_key);
  ScopedPin pin_guard(*this, base_key);

  // Apply the sparse edit to a copy of the base's sources. `changed` tracks
  // the paths whose bytes actually differ — a same-text upsert is a no-op.
  SourceList sources = base->sources();
  std::vector<std::string> changed;
  for (const auto& up : edit.upserts) {
    const std::string& path = up.first;
    bool found = false;
    for (auto& e : sources) {
      if (e.first != path) continue;
      found = true;
      if (e.second != up.second) {
        e.second = up.second;
        changed.push_back(path);
      }
      break;
    }
    if (!found) {
      auto pos = std::lower_bound(
          sources.begin(), sources.end(), path,
          [](const std::pair<std::string, std::string>& e,
             const std::string& p) { return e.first < p; });
      sources.insert(pos, {path, up.second});
      changed.push_back(path);
    }
  }
  for (const auto& path : edit.removes) {
    if (std::find(changed.begin(), changed.end(), path) != changed.end()) {
      throw Error("patch both upserts and removes '" + path + "'");
    }
    auto it = std::find_if(
        sources.begin(), sources.end(),
        [&](const std::pair<std::string, std::string>& e) {
          return e.first == path;
        });
    if (it == sources.end()) {
      throw Error("patch removes unknown path '" + path + "'");
    }
    sources.erase(it);
  }

  const std::string key = compute_key(base->config(), sources);
  if (key == base_key) {
    obs::count("service.patch.noops");
    PatchResult r;
    r.session = std::move(base);
    r.resident_hit = true;
    return r;
  }
  if (auto resident = lookup(key)) {
    obs::count("service.patch.noops");
    PatchResult r;
    r.session = std::move(resident);
    r.resident_hit = true;
    return r;
  }

  try {
    return patch_build(base, key, std::move(sources), changed, edit.removes);
  } catch (const fault::FaultInjected& e) {
    // service.patch.parse or meta.txn.splice fired: nothing was published,
    // the base session is still resident at its prior generation.
    obs::count("service.patch.rollbacks");
    span.attr("rolled_back", true);
    PatchResult r;
    r.session = std::move(base);
    r.rolled_back = true;
    r.errors.emplace_back("", e.what());
    return r;
  }
}

SessionStore::PatchResult SessionStore::patch_build(
    const std::shared_ptr<const Session>& base, const std::string& key,
    SourceList sources, const std::vector<std::string>& changed,
    const std::vector<std::string>& removed) {
  obs::Span span("service.patch.build");
  span.attr("key", key);
  base->ensure_parsed(opts_.build_pool);

  // Snapshot the base's parsed state. Immutable once parsed_ is set; the
  // lock orders this read against a concurrent ensure_parsed().
  std::vector<std::shared_ptr<const lang::SourceFile>> base_files;
  std::vector<std::pair<std::string, std::string>> base_errors;
  {
    std::lock_guard<std::mutex> lock(base->lazy_mu_);
    base_files = base->files_;
    base_errors = base->parse_errors_;
  }

  // Paths whose modules are dirty and whose carried diagnostics go stale.
  std::unordered_set<std::string> stale(changed.begin(), changed.end());
  stale.insert(removed.begin(), removed.end());

  // Re-parse only the changed files; any failure rolls the whole patch back.
  SourceList changed_sources;
  for (const auto& e : sources) {
    if (stale.count(e.first) != 0) changed_sources.push_back(e);
  }
  RCA_FAULT_POINT("service.patch.parse");
  std::vector<std::pair<std::string, std::string>> parse_errors;
  std::vector<lang::SourceFile> fresh =
      parse_sources(changed_sources, opts_.build_pool, &parse_errors);
  if (!parse_errors.empty()) {
    obs::count("service.patch.rollbacks");
    span.attr("rolled_back", true);
    PatchResult r;
    r.session = base;
    r.rolled_back = true;
    r.errors = std::move(parse_errors);
    return r;
  }

  std::unordered_map<std::string, std::shared_ptr<const lang::SourceFile>>
      by_path;
  for (const auto& f : base_files) by_path.emplace(f->path, f);
  for (auto& f : fresh) {
    auto sp = std::make_shared<const lang::SourceFile>(std::move(f));
    by_path[sp->path] = sp;  // fresh parse wins over the base's AST
  }

  // Assemble the patched session in corpus (path-sorted) order: fresh parses
  // for changed files, the base's shared ASTs for the rest. A file the base
  // could not parse stays degraded with its original error record — exactly
  // what a from-scratch build of the edited corpus would produce.
  auto session =
      std::make_shared<Session>(key, base->config(), std::move(sources));
  session->parse_pool_ = opts_.build_pool;
  for (const auto& e : session->sources_) {
    auto it = by_path.find(e.first);
    if (it != by_path.end()) {
      session->files_.push_back(it->second);
      continue;
    }
    for (const auto& pe : base_errors) {
      if (pe.first == e.first) session->parse_errors_.push_back(pe);
    }
  }
  // Throws fault::FaultInjected at meta.txn.splice; patch() maps that to a
  // rollback. Nothing has been published yet, so unwinding is the rollback.
  const meta::TxnStats stats = build_graph(*session, base.get(), stale);
  session->generation_ = base->generation_ + 1;

  std::vector<std::shared_ptr<const Session>> evicted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    evicted = insert_resident(key, session);
  }
  evicted.clear();  // destroyed outside mu_
  if (cache_) {
    cache_->store(snapshot_key(session->config_, session->sources_),
                  *session->mg_);
  }
  obs::count("service.patch.commits");
  obs::count("service.patch.rebuilt_modules", stats.rebuilt_modules);
  obs::count("service.patch.reused_fragments", stats.reused_fragments);
  obs::count("service.patch.spliced_nodes", stats.spliced_nodes);
  span.attr("rebuilt", stats.rebuilt_modules);
  span.attr("full_rewalk", stats.full_rewalk);

  PatchResult r;
  r.session = std::move(session);
  r.full_rewalk = stats.full_rewalk;
  r.splice = stats.splice;
  r.rebuilt_modules = stats.rebuilt_modules;
  r.reused_fragments = stats.reused_fragments;
  r.spliced_nodes = stats.spliced_nodes;
  return r;
}

meta::TxnStats SessionStore::build_graph(
    Session& session, const Session* base,
    const std::unordered_set<std::string>& stale) {
  const std::vector<meta::TxnInput> inputs =
      session.stage_modules(base != nullptr ? &stale : nullptr);
  meta::BuilderOptions opts;
  opts.pool = opts_.build_pool;
  opts.prune_dead_stores = session.config_.prune_dead_stores;
  opts.summary_informed_pruning = session.config_.summary_informed_pruning;
  std::optional<cov::CoverageFilter> coverage;  // the predicates point into it
  if (session.config_.coverage) {
    // Instrumented short run: requires the corpus driver convention
    // (cam_driver::cam_init / cam_step), as `rca-tool generate` emits.
    interp::Interpreter cov_interp(session.modules_);
    cov_interp.call("cam_driver", "cam_init");
    for (int s = 0; s < session.config_.coverage_steps; ++s) {
      cov_interp.call("cam_driver", "cam_step");
    }
    coverage.emplace(cov_interp.coverage(), &session.modules_);
    opts.module_filter = coverage->module_predicate();
    opts.subprogram_filter = coverage->subprogram_predicate();
  }
  // A cold build is the same transaction with no base, so every unfiltered
  // session is born with the fragment state that makes its patches
  // incremental. A filtered one keeps none, so a coverage session's patches
  // re-walk every kept module.
  meta::TxnResult txn = meta::run_transaction(
      inputs, base != nullptr ? base->txn_state_.get() : nullptr, opts,
      base != nullptr ? base->mg_ : nullptr);
  session.mg_ = std::move(txn.mg);
  session.txn_state_ = std::move(txn.state);

  // Seed an incremental lint when fragment reuse was sound (same condition:
  // every interface signature unchanged) and the base has lint results. The
  // seed holds the base's result by reference; lint() relints against it.
  if (base != nullptr && !txn.stats.full_rewalk &&
      session.txn_state_ != nullptr && session.txn_state_->tables != nullptr) {
    if (auto base_lint = base->cached_lint()) {
      Session::LintSeed seed;
      seed.base = std::move(base_lint);
      for (const meta::TxnInput& in : inputs) seed.dirty.push_back(in.dirty);
      session.lint_seed_ = std::move(seed);
    }
  }
  session.finalize_bytes();
  obs::count("service.session.builds");
  return txn.stats;
}

void SessionStore::publish_gauges() const {
  obs::gauge("service.session.count", static_cast<double>(entries_.size()));
  obs::gauge("service.session.bytes", static_cast<double>(total_bytes_));
}

std::size_t SessionStore::session_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::size_t SessionStore::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_bytes_;
}

std::size_t SessionStore::degraded_session_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t degraded = 0;
  for (const auto& [key, entry] : entries_) {
    if (!entry.session->skipped_modules().empty()) ++degraded;
  }
  return degraded;
}

std::vector<std::string> SessionStore::keys_by_recency() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {lru_.begin(), lru_.end()};
}

}  // namespace rca::service
