// Resolved form of a corpus, shared by Program (which builds it) and
// Interpreter (which executes it). Internal to rca_interp.
//
// Every name reference is bound once, at build time, to a frame slot, a
// module-variable index or a parameter index; every call to its Proc; every
// intrinsic to an enum; every assignment's watch identity to an interned key
// id. Names that do not resolve become kError nodes that throw the original
// EvalError when (and only when) they are executed.
//
// Nodes and statements are small fixed-size records (a model keeps one
// Program per corpus alive for its lifetime); variable-length parts live in
// shared pools addressed by Range.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "interp/interpreter.hpp"
#include "interp/value.hpp"
#include "lang/ast.hpp"

namespace rca::interp::detail {

struct Proc;
struct Stmt;

/// [first, first + count) of one of Code's pools.
struct Range {
  std::uint32_t first = 0;
  std::uint32_t count = 0;
};

/// Where a resolved variable lives.
enum class Where : std::uint8_t {
  kLocal,         // frame slot `index`
  kGlobal,        // module variable `index` (run state)
  kGlobalAtLoad,  // module variable read in module scope, where module
                  // variables not allocated yet are still unknown names
  kParam,         // parameter constant `index` (reads as a temporary copy)
};

enum class Intrinsic : std::uint8_t {
  kAbs, kSqrt, kExp, kLog, kLog10, kSin, kCos, kTan, kTanh, kAint,
  kMin, kMax, kMod, kSign, kFloor, kNint, kInt, kReal, kSum,
  kMinval, kMaxval, kSize, kMerge,
};

/// Source name of an intrinsic (for error messages).
const char* intrinsic_name(Intrinsic i);

/// Subroutines provided by the host rather than the corpus.
enum class Builtin : std::uint8_t { kNone, kOutfld, kShrRandUniform };

enum class NodeKind : std::uint8_t {
  kNumber,     // literal `num`; kIsInt flag
  kLogical,    // literal; kFlag
  kString,     // literal texts[text]
  kVar,        // whole variable `where`/`index`
  kIndexed,    // variable(args): element, or slice gather if kAnySlice
  kComponent,  // variable%steps..., indexed on the last step if it has args
  kUnary,      // op rhs
  kBinary,     // lhs op rhs
  kIntrinsic,  // `intrinsic`(args)
  kCall,       // user function `callee`(args -> actuals)
  kError,      // unresolved: throws texts[text] (at `line`) when executed
};

enum NodeFlag : std::uint8_t {
  kIsInt = 1,
  kFlag = 2,
  kAnySlice = 4,       // some subscript is `:` (a null entry in args)
  kFmaLeft = 8,        // a*b +/- c: FMA contraction candidate
  kFmaRight = 16,      // c + a*b
  kReassocSite = 32,   // left spine of a +/- chain of >= 3 terms
};

struct Node {
  NodeKind kind = NodeKind::kNumber;
  std::uint8_t op = 0;     // lang::Op for kUnary / kBinary
  std::uint8_t flags = 0;  // NodeFlag bits
  std::uint8_t aux = 0;    // Where (variables) or Intrinsic
  std::int32_t line = 0;
  union {
    double num;           // kNumber
    std::int32_t index;   // variables
    std::uint32_t text;   // kString / kError
    const Proc* callee;   // kCall
  };
  union {
    const Node* lhs;      // kBinary
    Range args;           // variables / kIntrinsic: arg_nodes; kCall: actuals
  };
  union {
    const Node* rhs;      // kUnary / kBinary
    Range steps;          // kComponent: steps
  };

  Node() : num(0.0), lhs(nullptr), rhs(nullptr) {}
  lang::Op binary_op() const { return static_cast<lang::Op>(op); }
  Where where() const { return static_cast<Where>(aux); }
  bool has(NodeFlag f) const { return (flags & f) != 0; }
};

/// One `%name` step of a component chain. `expect`/`index` are the
/// statically resolved layout; a runtime value of another type falls back
/// to lookup by name.
struct CompStep {
  const std::string* name = nullptr;  // in the AST
  const lang::DerivedTypeDef* expect = nullptr;
  std::int32_t index = -1;
  bool has_args = false;
};

/// Fortran argument association for one actual argument.
struct Actual {
  enum class Mode : std::uint8_t {
    kAlias,      // whole variable or component: the dummy aliases it
    kCopyInOut,  // element/slice: temporary, copied back after the call
    kValue,      // any other expression: temporary
  };
  Mode mode = Mode::kValue;
  const Node* expr = nullptr;  // kVar/kComponent (or kError) for kAlias
};

struct Layout;

/// Allocation plan for one declaration (module variable, local or derived
/// component), mirroring Fortran default initialization.
struct Alloc {
  const lang::VarDecl* decl = nullptr;
  const Layout* layout = nullptr;  // derived types
  std::uint32_t error = 0;         // texts id if the type is unknown
  Range dims;                      // arg_nodes
  const Node* init = nullptr;
  std::int32_t module = 0;  // scope the dims/init evaluate in
};

/// Component layout of a derived type, in declaration order.
struct Layout {
  const lang::DerivedTypeDef* def = nullptr;
  std::vector<const Alloc*> components;
};

enum class StmtKind : std::uint8_t {
  kAssign, kCall, kIf, kDo, kDoWhile, kReturn, kExit, kCycle, kError,
};

struct Stmt {
  StmtKind kind = StmtKind::kAssign;
  Builtin builtin = Builtin::kNone;
  std::int32_t line = 0;
  std::int32_t lhs_line = 0;
  std::int32_t key = -1;           // kAssign: (module, subprogram, name)
  std::int32_t fallback_key = -1;  // kAssign: (module, "", name) for locals
  std::uint32_t error = 0;         // texts id: unknown target / callee
  // kAssign: lhs (null if unresolved), rhs. kDo: var (null if undeclared),
  // from, to, step (may be null). kIf / kDoWhile: cond in `a`.
  const Node* a = nullptr;
  const Node* b = nullptr;
  const Node* c = nullptr;
  const Node* d = nullptr;
  const Proc* callee = nullptr;  // kCall to a subprogram
  Range list;       // kIf/kDo/kDoWhile: body (stmt_lists); kCall: actuals
  Range elseifs;    // kIf: elseifs
  Range else_body;  // kIf: stmt_lists
};

struct ElseIf {
  const Node* cond = nullptr;
  Range body;  // stmt_lists
};

/// A compiled subprogram: frame layout, local initialization and body.
struct Proc {
  const lang::Subprogram* sp = nullptr;
  std::int32_t id = 0;
  std::int32_t module = 0;
  std::int32_t slots = 0;
  std::int32_t result_slot = -1;
  Range param_slots;  // ints: dummy argument i -> frame slot
  Range inits;        // inits, in declaration order
  Range body;         // stmt_lists
};

struct Init {
  enum class How : std::uint8_t { kParameter, kAllocate, kResult };
  How how = How::kAllocate;
  std::int32_t slot = 0;
  const Node* value = nullptr;   // kParameter: evaluated in module scope
  const Alloc* alloc = nullptr;  // kAllocate
};

struct ModuleCode {
  const lang::Module* ast = nullptr;
  std::unordered_map<std::string, std::int32_t> vars;  // name -> global
  std::unordered_map<std::string, std::vector<const Proc*>> callables;
  std::vector<std::int32_t> param_indices;  // parameter decls, in order
};

struct Param {
  const lang::VarDecl* decl = nullptr;
  std::int32_t module = 0;
  const Node* init = nullptr;  // module scope; nullptr if it lacks a value
};

/// An interned assignment identity: (module, subprogram or -1, name).
struct KeyRef {
  std::int32_t module = 0;
  std::int32_t proc = -1;
  const std::string* name = nullptr;  // in the AST
};

/// The whole resolved corpus. Immutable once Program's constructor returns.
struct Code {
  std::vector<ModuleCode> modules;
  std::unordered_map<std::string, std::int32_t> module_index;

  std::deque<Node> nodes;  // stable addresses
  std::deque<Stmt> stmts;
  std::deque<Proc> procs;
  std::deque<Alloc> allocs;
  std::deque<Layout> layouts;

  // Pools addressed by Range.
  std::vector<const Node*> arg_nodes;  // null entry = `:` slice marker
  std::vector<CompStep> steps;
  std::vector<Actual> actuals;
  std::vector<const Stmt*> stmt_lists;
  std::vector<ElseIf> elseifs;
  std::vector<Init> inits;
  std::vector<std::int32_t> ints;
  std::deque<std::string> texts;  // [0] is empty

  std::vector<Param> params;
  std::vector<Value> param_values;     // filled by the load-time fixpoint
  std::vector<const Alloc*> globals;   // module variables, allocation order

  std::vector<KeyRef> keys;            // interned assignment identities
  std::vector<std::int32_t> key_order; // key ids sorted by identity

  WatchKey watch_key(std::int32_t id) const;
  /// Interned id of `key`, or -1.
  std::int32_t find_key(const WatchKey& key) const;
};

/// Evaluates the parameter constants to a fixpoint (they may reference
/// imported parameters not yet evaluated). Implemented by the executor.
void evaluate_parameters(Code& code);

}  // namespace rca::interp::detail
