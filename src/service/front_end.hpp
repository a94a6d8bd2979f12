// Shared corpus front-end helpers: on-disk source collection, (optionally
// parallel) parsing and the build-list filter. The session store builds
// every metagraph outside engine::Pipeline from these (`rca-tool graph`,
// `watch`, `serve`, `refine` all go through it), and `rca-tool lint` uses
// them directly — so every path sees the same file order, the same module
// selection and the same parse-failure records.
#pragma once

#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "lang/ast.hpp"

namespace rca {
class ThreadPool;
}

namespace rca::service {

/// Every Fortran-ish file (.f90/.f/.f95, case-insensitive) under `src_dir`
/// as (path, text), in sorted path order — directory iteration order is
/// filesystem-dependent, and node ids / diagnostic order must not depend on
/// it. Throws rca::Error when the directory cannot be read.
std::vector<std::pair<std::string, std::string>> collect_fortran_sources(
    const std::string& src_dir);

/// The same file set as collect_fortran_sources, paths only (sorted), no
/// file contents read — the watch loop stats these every tick and reads
/// only files whose mtime moved.
std::vector<std::string> collect_fortran_paths(const std::string& src_dir);

/// Parses sources into file-order slots (independent per file, so the pool
/// can schedule them freely without changing the result). Parse failures
/// land in `errors` by index, paired with their source path. `pool` may be
/// null for a serial parse.
std::vector<lang::SourceFile> parse_sources(
    const std::vector<std::pair<std::string, std::string>>& sources,
    ThreadPool* pool, std::vector<std::pair<std::string, std::string>>* errors);

/// Membership in the build configuration: a module is in it when listed in
/// the build list, or always when the list is empty. Hashes the list once,
/// so a pass over every module of a corpus costs one lookup per module.
class BuildListFilter {
 public:
  explicit BuildListFilter(const std::vector<std::string>& build_list)
      : names_(build_list.begin(), build_list.end()) {}

  bool contains(const std::string& module) const {
    return names_.empty() || names_.count(module) != 0;
  }

 private:
  std::unordered_set<std::string> names_;
};

}  // namespace rca::service
