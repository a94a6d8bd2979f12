#include "analysis/diagnostics.hpp"

#include <algorithm>
#include <tuple>

#include "support/json.hpp"
#include "support/strings.hpp"

namespace rca::analysis {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

bool diagnostic_less(const Diagnostic& a, const Diagnostic& b) {
  return std::tie(a.module, a.line, a.column, a.rule, a.name, a.message,
                  a.subprogram, a.file, a.severity, a.end_line) <
         std::tie(b.module, b.line, b.column, b.rule, b.name, b.message,
                  b.subprogram, b.file, b.severity, b.end_line);
}

void fold_parse_errors(
    const std::vector<std::pair<std::string, std::string>>& parse_errors,
    std::vector<Diagnostic>* diags) {
  const auto folded = static_cast<std::ptrdiff_t>(diags->size());
  for (const auto& [path, message] : parse_errors) {
    Diagnostic d;
    d.rule = kParseErrorRule;
    d.severity = Severity::kError;
    d.file = path;
    d.message = message;
    diags->push_back(std::move(d));
  }
  const auto mid = diags->begin() + folded;
  std::sort(mid, diags->end(), diagnostic_less);
  std::inplace_merge(diags->begin(), mid, diags->end(), diagnostic_less);
}

std::string diagnostics_to_text(const std::vector<Diagnostic>& diags) {
  std::string out;
  for (const Diagnostic& d : diags) {
    out += strfmt("%s:%d:%d: %s: %s [%s]", d.file.c_str(), d.line, d.column,
                  severity_name(d.severity), d.message.c_str(),
                  d.rule.c_str());
    if (!d.module.empty()) {
      out += " (" + d.module;
      if (!d.subprogram.empty()) out += "::" + d.subprogram;
      out += ")";
    }
    out += "\n";
  }
  return out;
}

namespace {

/// The records of `diags` as top-level JSON objects, comma-separated.
std::string render_records(const std::vector<Diagnostic>& diags) {
  // The report runs to megabytes at cesm scale, where growing the buffer by
  // doubling costs more than the rendering itself: size it up front, from
  // the string fields plus a fixed allowance for keys, severity and numbers.
  constexpr std::size_t kFixedBytesPerRecord = 160;
  std::size_t bytes = 0;
  for (const Diagnostic& d : diags) {
    bytes += kFixedBytesPerRecord + d.rule.size() + d.module.size() +
             d.subprogram.size() + d.name.size() + d.file.size() +
             d.message.size();
  }
  JsonWriter w;
  w.reserve(bytes);
  for (const Diagnostic& d : diags) {
    w.begin_object();
    w.key("rule");
    w.string_value(d.rule);
    w.key("severity");
    w.string_value(severity_name(d.severity));
    w.key("module");
    w.string_value(d.module);
    w.key("subprogram");
    w.string_value(d.subprogram);
    w.key("name");
    w.string_value(d.name);
    w.key("file");
    w.string_value(d.file);
    w.key("line");
    w.integer(d.line);
    w.key("column");
    w.integer(d.column);
    w.key("end_line");
    w.integer(d.end_line);
    w.key("message");
    w.string_value(d.message);
    w.end_object();
  }
  return std::move(w).str();
}

using Counts = std::array<std::size_t, 3>;

void count_into(const std::vector<Diagnostic>& diags, Counts* counts) {
  for (const Diagnostic& d : diags) {
    ++(*counts)[static_cast<std::size_t>(d.severity)];
  }
}

/// Appends the document around rendered record runs to `out`: exactly the
/// bytes a JsonWriter gives for {"schema", "counts", "diagnostics": [...]}.
void append_report(const Counts& counts,
                   const std::vector<const std::string*>& records,
                   std::string* out) {
  std::size_t bytes = 128;
  for (const std::string* r : records) bytes += r->size() + 1;
  out->reserve(out->size() + bytes);
  *out += "{\"schema\":\"rca.diagnostics.v1\",\"counts\":{\"error\":";
  *out += std::to_string(counts[static_cast<std::size_t>(Severity::kError)]);
  *out += ",\"warning\":";
  *out += std::to_string(counts[static_cast<std::size_t>(Severity::kWarning)]);
  *out += ",\"note\":";
  *out += std::to_string(counts[static_cast<std::size_t>(Severity::kNote)]);
  *out += "},\"diagnostics\":[";
  bool first = true;
  for (const std::string* r : records) {
    if (r->empty()) continue;
    if (!first) out->push_back(',');
    *out += *r;
    first = false;
  }
  *out += "]}";
}

}  // namespace

DiagnosticRun::DiagnosticRun(std::string module_name,
                             std::vector<Diagnostic> diags)
    : module(std::move(module_name)), diagnostics(std::move(diags)) {
  std::sort(diagnostics.begin(), diagnostics.end(), diagnostic_less);
  count_into(diagnostics, &counts);
  json = render_records(diagnostics);
}

void append_diagnostics_report(const std::vector<const DiagnosticRun*>& runs,
                               std::string* out) {
  Counts counts{};
  std::vector<const std::string*> records;
  records.reserve(runs.size());
  for (const DiagnosticRun* r : runs) {
    for (std::size_t s = 0; s < counts.size(); ++s) counts[s] += r->counts[s];
    records.push_back(&r->json);
  }
  append_report(counts, records, out);
}

std::string diagnostics_to_json(const std::vector<Diagnostic>& diags) {
  Counts counts{};
  count_into(diags, &counts);
  const std::string records = render_records(diags);
  std::string out;
  append_report(counts, {&records}, &out);
  return out;
}

std::string diagnostics_to_tsv(const std::vector<Diagnostic>& diags) {
  std::string out = "# rca-lint 1\n";
  out += "# rule\tseverity\tmodule\tsubprogram\tline\tcolumn\tname\tmessage\n";
  for (const Diagnostic& d : diags) {
    out += strfmt("%s\t%s\t%s\t%s\t%d\t%d\t%s\t%s\n", d.rule.c_str(),
                  severity_name(d.severity), d.module.c_str(),
                  d.subprogram.c_str(), d.line, d.column, d.name.c_str(),
                  d.message.c_str());
  }
  return out;
}

}  // namespace rca::analysis
