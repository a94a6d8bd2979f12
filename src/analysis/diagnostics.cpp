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

std::string diagnostics_to_json(const std::vector<Diagnostic>& diags) {
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t notes = 0;
  // The report runs to megabytes at cesm scale, where growing the buffer by
  // doubling costs more than the rendering itself: size it up front, from
  // the string fields plus a fixed allowance for keys, severity and numbers.
  constexpr std::size_t kFixedBytesPerRecord = 160;
  std::size_t bytes = 128;
  for (const Diagnostic& d : diags) {
    if (d.severity == Severity::kError) ++errors;
    else if (d.severity == Severity::kWarning) ++warnings;
    else ++notes;
    bytes += kFixedBytesPerRecord + d.rule.size() + d.module.size() +
             d.subprogram.size() + d.name.size() + d.file.size() +
             d.message.size();
  }

  JsonWriter w;
  w.reserve(bytes);
  w.begin_object();
  w.key("schema");
  w.string_value("rca.diagnostics.v1");
  w.key("counts");
  w.begin_object();
  w.key("error");
  w.integer(static_cast<long long>(errors));
  w.key("warning");
  w.integer(static_cast<long long>(warnings));
  w.key("note");
  w.integer(static_cast<long long>(notes));
  w.end_object();
  w.key("diagnostics");
  w.begin_array();
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
  w.end_array();
  w.end_object();
  return std::move(w).str();
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
