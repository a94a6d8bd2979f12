#include "service/front_end.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "fault/fault.hpp"
#include "lang/parser.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/thread_pool.hpp"

namespace fs = std::filesystem;

namespace rca::service {

namespace {

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read " + path.string());
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

std::vector<std::pair<std::string, std::string>> collect_fortran_sources(
    const std::string& src_dir) {
  std::vector<std::pair<std::string, std::string>> sources;
  for (const std::string& path : collect_fortran_paths(src_dir)) {
    sources.emplace_back(path, read_file(path));
  }
  return sources;
}

std::vector<std::string> collect_fortran_paths(const std::string& src_dir) {
  std::error_code ec;
  fs::recursive_directory_iterator it(src_dir, ec);
  if (ec) throw Error("cannot read source directory " + src_dir);
  std::vector<std::string> paths;
  for (const auto& entry : it) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = to_lower(entry.path().extension().string());
    if (ext != ".f90" && ext != ".f" && ext != ".f95") continue;
    paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::vector<lang::SourceFile> parse_sources(
    const std::vector<std::pair<std::string, std::string>>& sources,
    ThreadPool* pool,
    std::vector<std::pair<std::string, std::string>>* errors) {
  std::vector<std::optional<lang::SourceFile>> slots(sources.size());
  std::vector<std::string> messages(sources.size());
  auto parse_one = [&sources, &slots, &messages](std::size_t i) {
    try {
      RCA_FAULT_POINT("service.parse");
      lang::Parser parser(sources[i].first, sources[i].second);
      slots[i] = parser.parse_file();
    } catch (const ParseError& e) {
      messages[i] = e.what();
    } catch (const std::exception& e) {
      // Fault isolation: any failure parsing one file — not just a clean
      // ParseError — is recorded against that file and the rest of the
      // corpus still builds. One poisoned module must degrade the session,
      // never kill it.
      messages[i] = std::string("parse failed: ") + e.what();
    }
  };
  parallel_for(pool, sources.size(), parse_one);
  std::vector<lang::SourceFile> files;
  files.reserve(sources.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (!messages[i].empty()) {
      errors->emplace_back(sources[i].first, messages[i]);
      continue;
    }
    if (slots[i]) files.push_back(std::move(*slots[i]));
  }
  return files;
}

}  // namespace rca::service
