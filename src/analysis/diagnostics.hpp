// Structured lint diagnostics (static-analysis subsystem).
//
// Every analysis pass reports findings as Diagnostic records — severity,
// stable rule id, source position (start + end, from the AST's extent
// fields), the owning module/subprogram, and the canonical variable name the
// metagraph would intern for the same site — so a diagnostic can be joined
// against metagraph node metadata by (module, subprogram, name).
//
// Three emitters share the same record stream:
//   * text   — one human-readable line per finding (compiler style);
//   * JSON   — schema `rca.diagnostics.v1`, for CI artifacts and tooling;
//   * TSV    — position-stable byte-exact table, pinned by the golden test.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace rca::analysis {

enum class Severity { kNote, kWarning, kError };

const char* severity_name(Severity s);

struct Diagnostic {
  std::string rule;        // stable id, e.g. "dead-store"
  Severity severity = Severity::kWarning;
  std::string module;      // owning module
  std::string subprogram;  // empty for module-level findings
  std::string name;        // canonical variable/procedure name
  std::string message;     // human-readable explanation
  std::string file;        // source path (omitted from the TSV emitter)
  int line = 0;
  int column = 0;
  int end_line = 0;
};

/// Orders by (module, line, column, rule, name, message), then by every
/// other rendered field (subprogram, file, severity, end_line): source order
/// within a module, and a total order over what the emitters print, so a
/// sort and a merge of sorted runs give the same bytes.
bool diagnostic_less(const Diagnostic& a, const Diagnostic& b);

/// Rule id of the diagnostic a file the front end could not parse becomes.
inline constexpr const char* kParseErrorRule = "parse-error";

/// Folds front-end parse failures, (path, message) pairs, into `diags` as
/// kParseErrorRule errors — a file that cannot be parsed is itself a
/// finding, so every emitter reports it. `diags` must already be sorted by
/// diagnostic_less; only the folded records are sorted, then merged in.
void fold_parse_errors(
    const std::vector<std::pair<std::string, std::string>>& parse_errors,
    std::vector<Diagnostic>* diags);

/// `file:line:col: severity: message [rule] (module::subprogram)` lines.
std::string diagnostics_to_text(const std::vector<Diagnostic>& diags);

/// Schema rca.diagnostics.v1: {"schema", "counts", "diagnostics": [...]}.
std::string diagnostics_to_json(const std::vector<Diagnostic>& diags);

/// One module's findings, immutable once built: sorted by diagnostic_less,
/// rendered once as rca.diagnostics.v1 records and counted by severity. A
/// relint shares the runs of every module it did not recompute, so a
/// report is a header plus a concatenation of runs.
struct DiagnosticRun {
  std::string module;  // every record's module ("" for parse errors)
  std::vector<Diagnostic> diagnostics;
  std::string json;  // the records, comma-separated, no brackets
  std::array<std::size_t, 3> counts{};  // indexed by Severity

  /// Sorts `diags` (all of module `module`), renders and counts them.
  DiagnosticRun(std::string module, std::vector<Diagnostic> diags);
};

/// Appends the rca.diagnostics.v1 document over `runs`, whose records must
/// already be in diagnostic_less order run after run, to `out`: the header
/// with the summed counts, then every run's records. Byte-identical to
/// diagnostics_to_json over the concatenated records.
void append_diagnostics_report(const std::vector<const DiagnosticRun*>& runs,
                               std::string* out);

/// Byte-stable TSV (header + one row per finding, no file paths) for
/// golden-corpus pinning.
std::string diagnostics_to_tsv(const std::vector<Diagnostic>& diags);

}  // namespace rca::analysis
