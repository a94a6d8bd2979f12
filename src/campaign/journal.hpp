// Crash-durable campaign journals.
//
// A long refinement campaign must survive its worker process dying: the
// manager records each campaign under `<journal_dir>/<id>.journal` as JSON
// lines — one `start` record carrying the verbatim /v1/refine request body
// (everything that determines the run, seed included) plus the resolved
// session key (session campaigns), then one `iteration` record per
// committed IterationSnapshot. The journal is deleted the moment the
// campaign reaches a terminal state, so the set of `*.journal` files on
// disk IS the set of campaigns a respawned worker must resume.
//
// Durability protocol: the start record is published with
// atomic_write_file (temp + fsync + rename — a crash can never leave a
// half-written journal behind, only a `.tmp` that the next scan ignores and
// removes); iteration records are fsync'd appends, so a crash leaves at
// most one torn final line, which load_unfinished() tolerates by dropping
// it (the iteration simply replays).
//
// Resume model: refinement is deterministic given the start body, so the
// respawned worker re-executes the campaign under its original id and
// *verifies* each replayed iteration against the journaled checkpoint
// (counters campaign.checkpoint.replayed / campaign.checkpoint.mismatch)
// before continuing past the last checkpoint. Because rca.campaign.v1
// documents carry no ids and no timestamps, the resumed result is
// byte-identical to the uncrashed run's (pinned by tests/fleet_test.cpp).
#pragma once

#include <string>
#include <vector>

#include "campaign/campaign.hpp"

namespace rca::campaign {

class CampaignJournal {
 public:
  /// `<dir>/<id>.journal`.
  static std::string path_for(const std::string& dir, const std::string& id);

  /// Publishes the start record atomically (creates `dir` if needed).
  /// `start_body` is the verbatim request JSON; `session_key` the resolved
  /// session at admission time (empty for a scenario campaign).
  static void write_start(const std::string& dir, const std::string& id,
                          const std::string& start_body,
                          const std::string& session_key);

  /// Appends one fsync'd iteration checkpoint.
  static void append_iteration(const std::string& dir, const std::string& id,
                               const IterationSnapshot& snap);

  /// Removes the journal (terminal state reached). Missing file is fine.
  static void remove(const std::string& dir, const std::string& id);

  /// One resumable campaign as read back from disk.
  struct Unfinished {
    std::string id;
    std::string start_body;  // verbatim request JSON
    std::string session_key;
    std::vector<IterationSnapshot> checkpoints;
  };

  /// Scans `dir` for `*.journal` files, ordered by campaign id so resume
  /// order is deterministic. Journals with a malformed start record are
  /// skipped and deleted (unresumable); a torn final iteration line is
  /// dropped. Stray `*.journal.tmp` files are removed. An absent `dir`
  /// yields an empty list.
  static std::vector<Unfinished> load_unfinished(const std::string& dir);
};

}  // namespace rca::campaign
