// Program: a corpus compiled once for many interpreter runs.
//
// Building a Program registers the modules, resolves use-imports and
// interfaces, evaluates parameter constants, and binds every name reference
// in every subprogram to a frame slot, module-variable index or parameter,
// every call to its subprogram and every intrinsic to an enum. Execution
// state (module variables, PRNG, watches, outputs, coverage) lives in an
// Interpreter; any number of Interpreters, on any threads, may run one
// Program at once, since nothing in it changes after construction.
#pragma once

#include <memory>
#include <vector>

#include "lang/ast.hpp"

namespace rca::interp {

namespace detail {
struct Code;
}

class Program {
 public:
  /// Module ASTs must outlive the program. Throws EvalError for duplicate or
  /// unknown modules, unknown imported entities or interface procedures,
  /// and unresolvable parameter constants. Unresolved names inside
  /// subprogram bodies are not errors until they execute.
  explicit Program(std::vector<const lang::Module*> modules);
  ~Program();

  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  const detail::Code& code() const { return *code_; }

 private:
  std::unique_ptr<detail::Code> code_;
};

}  // namespace rca::interp
