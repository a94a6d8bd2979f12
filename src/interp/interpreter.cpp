#include "interp/interpreter.hpp"

#include <algorithm>
#include <cmath>

#include "interp/compiled.hpp"
#include "interp/program.hpp"
#include "support/strings.hpp"

namespace rca::interp {

using detail::Actual;
using detail::Alloc;
using detail::Builtin;
using detail::Code;
using detail::Init;
using detail::Intrinsic;
using detail::Node;
using detail::NodeKind;
using detail::Proc;
using detail::Range;
using detail::Stmt;
using detail::StmtKind;
using detail::Where;
using lang::Op;
using Kind = Value::Kind;

double WatchStats::rms() const {
  if (count == 0) return 0.0;
  return std::sqrt(sum_sq / static_cast<double>(count));
}

double WatchStats::mean() const {
  if (count == 0) return 0.0;
  return sum / static_cast<double>(count);
}

void CoverageRecorder::record(const std::string& module,
                              const std::string& subprogram) {
  modules_.insert(module);
  if (!subprogram.empty()) subprograms_.insert(module + "::" + subprogram);
}

bool CoverageRecorder::module_executed(const std::string& module) const {
  return modules_.count(module) != 0;
}

bool CoverageRecorder::subprogram_executed(const std::string& module,
                                           const std::string& sub) const {
  return subprograms_.count(module + "::" + sub) != 0;
}

void CoverageRecorder::clear() {
  modules_.clear();
  subprograms_.clear();
}

namespace {

enum class Flow { kNormal, kReturn, kExit, kCycle };

[[noreturn]] void fail(const std::string& msg, int line = 0) {
  if (line > 0) throw EvalError(strfmt("line %d: %s", line, msg.c_str()));
  throw EvalError(msg);
}

/// An expression result: a scalar held inline, or (array, character and
/// derived values) the index of a temporary on the run's value stack.
struct Num {
  Kind kind = Kind::kReal;
  union {
    double r;
    long long i;
    bool b;
    std::size_t big;
  };
  Num() : r(0.0) {}
};

Num real_num(double v) {
  Num n;
  n.r = v;
  return n;
}

Num int_num(long long v) {
  Num n;
  n.kind = Kind::kInt;
  n.i = v;
  return n;
}

Num bool_num(bool v) {
  Num n;
  n.kind = Kind::kLogical;
  n.b = v;
  return n;
}

bool is_scalar(Kind k) {
  return k == Kind::kReal || k == Kind::kInt || k == Kind::kLogical;
}

// Conversions with Value::as_real/as_int/as_logical semantics.
double num_real(const Num& n) {
  switch (n.kind) {
    case Kind::kReal: return n.r;
    case Kind::kInt: return static_cast<double>(n.i);
    case Kind::kLogical: return n.b ? 1.0 : 0.0;
    default: throw EvalError("expected a numeric scalar value");
  }
}

long long num_int(const Num& n) {
  switch (n.kind) {
    case Kind::kInt: return n.i;
    case Kind::kReal: return static_cast<long long>(n.r);
    case Kind::kLogical: return n.b ? 1 : 0;
    default: throw EvalError("expected an integer value");
  }
}

bool num_logical(const Num& n) {
  switch (n.kind) {
    case Kind::kLogical: return n.b;
    case Kind::kInt: return n.i != 0;
    default: throw EvalError("expected a logical value");
  }
}

/// Resets `v` to a fresh value of kind `k` (keeping buffer capacity, so
/// frame slots reused across calls do not reallocate their arrays).
void reset(Value& v, Kind k) {
  v.kind = k;
  v.real = 0.0;
  v.integer = 0;
  v.logical = false;
  v.chars.clear();
  v.array.clear();
  v.dims.clear();
  v.derived.reset();
}

/// Small inline buffer for per-call argument lists.
template <typename T, std::size_t N>
class SmallVec {
 public:
  explicit SmallVec(std::size_t n) : n_(n) {
    if (n > N) heap_.resize(n);
  }
  T* data() { return n_ > N ? heap_.data() : inline_; }
  T& operator[](std::size_t i) { return data()[i]; }
  std::size_t size() const { return n_; }

 private:
  std::size_t n_;
  T inline_[N];
  std::vector<T> heap_;
};

}  // namespace

// ===========================================================================
// Run state and executor.
// ===========================================================================

struct Interpreter::Impl {
  struct Frame {
    Value** slots = nullptr;  // null for module scope
    int module = 0;
  };

  explicit Impl(const Code& code)
      : code_(code),
        fma_(code.modules.size(), 0),
        reassoc_(code.modules.size(), 0),
        covered_(code.procs.size(), 0),
        prng_(std::make_unique<KissRng>()) {}

  const Code& code_;
  std::vector<Value> globals_;
  std::size_t globals_live_ = 0;
  // Set only while the load-time fixpoint evaluates parameter constants.
  const std::vector<char>* params_ready_ = nullptr;

  std::vector<char> fma_;
  std::vector<char> reassoc_;
  std::vector<char> covered_;  // per Proc id
  mutable CoverageRecorder coverage_;
  std::unique_ptr<Prng> prng_;

  // Temporaries: the value stack (truncated after every statement) and
  // pooled slots for frames and argument temporaries (released on return).
  std::vector<Value> big_;
  std::vector<std::unique_ptr<Value>> pool_;
  std::size_t pool_top_ = 0;

  std::unordered_map<WatchKey, WatchStats, WatchKeyHash> watch_stats_;
  std::vector<WatchStats*> key_watch_;  // per interned key; null = unwatched
  bool any_watches_ = false;
  bool watches_dirty_ = false;
  bool record_assignments_ = false;
  std::vector<char> recorded_;
  std::unordered_set<WatchKey, WatchKeyHash> assigned_keys_;
  std::vector<std::pair<std::string, double>> outputs_;
  std::uint64_t assignments_executed_ = 0;

  struct PoolMark {
    Impl* impl;
    std::size_t top;
    explicit PoolMark(Impl* i) : impl(i), top(i->pool_top_) {}
    ~PoolMark() { impl->pool_top_ = top; }
  };

  Value* acquire() {
    if (pool_top_ == pool_.size()) pool_.push_back(std::make_unique<Value>());
    return pool_[pool_top_++].get();
  }

  // -------------------------------------------------------------------------
  // Setup.
  // -------------------------------------------------------------------------

  void allocate_globals() {
    globals_.resize(code_.globals.size());
    for (std::size_t g = 0; g < code_.globals.size(); ++g) {
      Frame mf{nullptr, code_.globals[g]->module};
      allocate(globals_[g], *code_.globals[g], mf);
      globals_live_ = g + 1;
      big_.clear();
    }
  }

  /// Binds watches to interned assignment keys; run once per change, so no
  /// key is hashed per executed assignment.
  void prepare() {
    big_.clear();
    if (record_assignments_ && recorded_.size() != code_.keys.size()) {
      recorded_.assign(code_.keys.size(), 0);
    }
    if (!watches_dirty_) return;
    watches_dirty_ = false;
    key_watch_.assign(code_.keys.size(), nullptr);
    for (auto& [key, stats] : watch_stats_) {
      const std::int32_t id = code_.find_key(key);
      if (id >= 0) key_watch_[id] = &stats;
    }
  }

  void allocate(Value& v, const Alloc& a, Frame& frame) {
    const lang::VarDecl& d = *a.decl;
    if (a.error) fail(code_.texts[a.error], d.line);
    if (a.layout) {
      reset(v, Kind::kDerived);
      v.derived = std::make_shared<DerivedValue>();
      DerivedValue& dv = *v.derived;
      dv.type_name = d.type.derived_name;
      dv.def = a.layout->def;
      for (const Alloc* comp : a.layout->components) {
        auto slot = std::make_shared<Value>();
        Frame type_frame{nullptr, comp->module};
        allocate(*slot, *comp, type_frame);
        dv.components[comp->decl->name] = std::move(slot);
      }
      dv.fields.reserve(a.layout->components.size());
      for (const Alloc* comp : a.layout->components) {
        dv.fields.push_back(dv.components[comp->decl->name].get());
      }
      return;
    }
    if (d.is_array()) {
      reset(v, Kind::kArray);
      long long total = 1;
      for (std::uint32_t k = 0; k < a.dims.count; ++k) {
        const long long extent = num_int(eval(arg(a.dims, k), frame));
        RCA_CHECK_MSG(extent >= 0, "negative array extent");
        v.dims.push_back(extent);
        total *= extent;
      }
      v.array.assign(static_cast<std::size_t>(total), 0.0);
      if (a.init) {
        const double init = num_real(eval(*a.init, frame));
        std::fill(v.array.begin(), v.array.end(), init);
      }
      return;
    }
    switch (d.type.kind) {
      case lang::TypeKind::kReal: reset(v, Kind::kReal); break;
      case lang::TypeKind::kInteger: reset(v, Kind::kInt); break;
      case lang::TypeKind::kLogical: reset(v, Kind::kLogical); break;
      case lang::TypeKind::kCharacter: reset(v, Kind::kChar); break;
      case lang::TypeKind::kDerived: break;  // handled above
    }
    if (!a.init) return;
    const Num init = eval(*a.init, frame);
    switch (v.kind) {
      case Kind::kReal: v.real = num_real(init); break;
      case Kind::kInt: v.integer = num_int(init); break;
      case Kind::kLogical: v.logical = num_logical(init); break;
      case Kind::kChar:
        v.chars = init.kind == Kind::kChar ? big_[init.big].chars : "";
        break;
      default: break;
    }
  }

  // -------------------------------------------------------------------------
  // Values.
  // -------------------------------------------------------------------------

  Num num_of(Value&& v) {
    switch (v.kind) {
      case Kind::kReal: return real_num(v.real);
      case Kind::kInt: return int_num(v.integer);
      case Kind::kLogical: return bool_num(v.logical);
      default: {
        Num n;
        n.kind = v.kind;
        big_.push_back(std::move(v));
        n.big = big_.size() - 1;
        return n;
      }
    }
  }

  /// Scalars are read in place; other values are copied to the stack.
  Num num_of(const Value& v) {
    switch (v.kind) {
      case Kind::kReal: return real_num(v.real);
      case Kind::kInt: return int_num(v.integer);
      case Kind::kLogical: return bool_num(v.logical);
      default: return num_of(Value(v));
    }
  }

  Value to_value(const Num& n) {
    switch (n.kind) {
      case Kind::kReal: return Value::make_real(n.r);
      case Kind::kInt: return Value::make_int(n.i);
      case Kind::kLogical: return Value::make_logical(n.b);
      default: return std::move(big_[n.big]);
    }
  }

  const Node& arg(const Range& r, std::uint32_t k) const {
    return *code_.arg_nodes[r.first + k];
  }

  const Value& param(const Node& n) {
    if (params_ready_ && !(*params_ready_)[n.index]) {
      fail("unknown name '" + code_.params[n.index].decl->name + "'", n.line);
    }
    return code_.param_values[n.index];
  }

  /// The variable a kVar/kIndexed/kComponent node names. Parameters come
  /// back as a pooled copy (writes to it are discarded), so callers that
  /// may see one hold a PoolMark.
  Value* slot(const Node& n, Frame& f) {
    switch (n.where()) {
      case Where::kLocal: return f.slots[n.index];
      case Where::kGlobalAtLoad:
        if (static_cast<std::size_t>(n.index) >= globals_live_) {
          fail("unknown name '" + code_.globals[n.index]->decl->name + "'",
               n.line);
        }
        return &globals_[n.index];
      case Where::kGlobal: return &globals_[n.index];
      case Where::kParam: {
        Value* t = acquire();
        *t = param(n);
        return t;
      }
    }
    return nullptr;
  }

  /// Walks a component chain to its final component.
  Value* component(const Node& n, Frame& f) {
    Value* v = slot(n, f);
    for (std::uint32_t i = 0; i < n.steps.count; ++i) {
      const detail::CompStep& step = code_.steps[n.steps.first + i];
      if (v->kind != Kind::kDerived) {
        fail("'%" + *step.name + "' applied to non-derived value", n.line);
      }
      DerivedValue& dv = *v->derived;
      if (step.index >= 0 && dv.def == step.expect) {
        v = dv.fields[step.index];
      } else {
        auto it = dv.components.find(*step.name);
        if (it == dv.components.end()) {
          fail("derived type '" + dv.type_name + "' has no component '" +
                   *step.name + "'",
               n.line);
        }
        v = it->second.get();
      }
      if (i + 1 < n.steps.count && step.has_args) {
        fail("indexed intermediate derived-type components are not supported",
             n.line);
      }
    }
    return v;
  }

  /// Location of an assignment target or aliased actual argument.
  Value* locate(const Node& n, Frame& f) {
    switch (n.kind) {
      case NodeKind::kVar:
      case NodeKind::kIndexed: return slot(n, f);
      case NodeKind::kComponent: return component(n, f);
      default: fail(code_.texts[n.text], n.line);
    }
  }

  /// True when the last step of a component chain carries subscripts.
  bool last_step_indexed(const Node& n) const {
    return code_.steps[n.steps.first + n.steps.count - 1].has_args;
  }

  bool indexed(const Node& n) const {
    return n.kind == NodeKind::kIndexed ||
           (n.kind == NodeKind::kComponent && last_step_indexed(n));
  }

  // -------------------------------------------------------------------------
  // Expressions.
  // -------------------------------------------------------------------------

  Num eval(const Node& n, Frame& f) {
    switch (n.kind) {
      case NodeKind::kNumber:
        return n.has(detail::kIsInt) ? int_num(static_cast<long long>(n.num))
                                     : real_num(n.num);
      case NodeKind::kLogical:
        return bool_num(n.has(detail::kFlag));
      case NodeKind::kString:
        return num_of(Value::make_char(code_.texts[n.text]));
      case NodeKind::kVar:
        if (n.where() == Where::kParam) return num_of(param(n));
        return num_of(*slot(n, f));
      case NodeKind::kIndexed: {
        if (n.where() == Where::kParam) return index(param(n), n, f);
        return index(*slot(n, f), n, f);
      }
      case NodeKind::kComponent: {
        PoolMark mark(this);
        const Value* v = component(n, f);
        if (!last_step_indexed(n)) return num_of(*v);
        return index(*v, n, f);
      }
      case NodeKind::kUnary:
        return unary(n.binary_op(), eval(*n.rhs, f), n.line);
      case NodeKind::kBinary:
        return binary(n, f);
      case NodeKind::kIntrinsic:
        return intrinsic(n, f);
      case NodeKind::kCall:
        return invoke(*n.callee, n.args, f);
      case NodeKind::kError:
        fail(code_.texts[n.text], n.line);
    }
    fail("unreachable expression kind", n.line);
  }

  Num binary(const Node& n, Frame& f) {
    // FMA contraction: when the module is compiled with FMA enabled,
    // a*b + c (either order) and a*b - c are evaluated with one rounding,
    // as AVX2/FMA codegen would do.
    if ((n.flags & (detail::kFmaLeft | detail::kFmaRight)) && fma_[f.module]) {
      const bool left = n.has(detail::kFmaLeft);
      const Node& mul = left ? *n.lhs : *n.rhs;
      const Num a = eval(*mul.lhs, f);
      const Num b = eval(*mul.rhs, f);
      const Num c = eval(left ? *n.rhs : *n.lhs, f);
      const double sign =
          (left && n.binary_op() == Op::kSub) ? -1.0 : 1.0;
      const bool any_array = a.kind == Kind::kArray ||
                             b.kind == Kind::kArray || c.kind == Kind::kArray;
      if (!any_array && (a.kind == Kind::kReal || b.kind == Kind::kReal ||
                         c.kind == Kind::kReal)) {
        return real_num(std::fma(num_real(a), num_real(b), sign * num_real(c)));
      }
      if (any_array) return broadcast_fma(a, b, c, sign, n.line);
      // Integer-only falls through to exact arithmetic below.
    }
    // Reassociation: when the module is compiled with aggressive FP
    // reassociation, a left-associated chain of three or more +/- terms is
    // summed right-to-left instead of the source's left-to-right order —
    // the association change -Ofast-style codegen is allowed to make. Only
    // the left spine is flattened, matching analysis/fpsense's site shape;
    // operands are still evaluated in source order.
    if (n.has(detail::kReassocSite) && reassoc_[f.module]) {
      return reassociated(n, f);
    }
    const Num lhs = eval(*n.lhs, f);
    const Num rhs = eval(*n.rhs, f);
    return apply_binary(n.binary_op(), lhs, rhs, n.line);
  }

  /// Left-spine terms of a +/- chain in source order, with the sign each
  /// term carries in the left-associated sum.
  static void flatten_sum(const Node& n,
                          std::vector<std::pair<const Node*, int>>* terms) {
    if (n.kind == NodeKind::kBinary &&
        (n.binary_op() == Op::kAdd || n.binary_op() == Op::kSub)) {
      flatten_sum(*n.lhs, terms);
      terms->emplace_back(n.rhs, n.binary_op() == Op::kSub ? -1 : 1);
      return;
    }
    terms->emplace_back(&n, 1);
  }

  Num reassociated(const Node& n, Frame& f) {
    // Evaluate every term in source order (left-to-right), then fold the
    // signed sum right-to-left: s0*v0 + (s1*v1 + (... + sn*vn)). Integer-only
    // chains are exact either way; FP chains round differently.
    std::vector<std::pair<const Node*, int>> terms;
    flatten_sum(n, &terms);
    SmallVec<Num, 8> values(terms.size());
    for (std::size_t k = 0; k < terms.size(); ++k) {
      Num v = eval(*terms[k].first, f);
      if (terms[k].second < 0) v = unary(Op::kNeg, v, n.line);
      values[k] = v;
    }
    Num acc = values[values.size() - 1];
    for (std::size_t k = values.size() - 1; k-- > 0;) {
      acc = apply_binary(Op::kAdd, values[k], acc, n.line);
    }
    return acc;
  }

  /// Element `i` of an operand broadcast against arrays of `n` elements.
  double element(const Num& v, std::size_t i, std::size_t n, int line) {
    if (v.kind != Kind::kArray) return num_real(v);
    const std::vector<double>& a = big_[v.big].array;
    if (a.size() != n) fail("array size mismatch in expression", line);
    return a[i];
  }

  Num broadcast_fma(const Num& a, const Num& b, const Num& c, double sign,
                    int line) {
    auto size = [this](const Num& v) {
      return v.kind == Kind::kArray ? big_[v.big].array.size() : 0;
    };
    const std::size_t n = std::max({size(a), size(b), size(c)});
    Value out = Value::make_array({static_cast<long long>(n)});
    const Num& shape = a.kind == Kind::kArray   ? a
                       : b.kind == Kind::kArray ? b
                                                : c;
    out.dims = big_[shape.big].dims;
    for (std::size_t i = 0; i < n; ++i) {
      out.array[i] = std::fma(element(a, i, n, line), element(b, i, n, line),
                              sign * element(c, i, n, line));
    }
    return num_of(std::move(out));
  }

  Num unary(Op op, const Num& v, int line) {
    switch (op) {
      case Op::kNeg:
        if (v.kind == Kind::kArray) {
          for (double& x : big_[v.big].array) x = -x;
          return v;
        }
        if (v.kind == Kind::kInt) return int_num(-v.i);
        return real_num(-num_real(v));
      case Op::kPlusSign:
        return v;
      case Op::kNot:
        return bool_num(!num_logical(v));
      default:
        fail("bad unary operator", line);
    }
  }

  Num apply_binary(Op op, const Num& lhs, const Num& rhs, int line) {
    switch (op) {
      case Op::kAnd:
        return bool_num(num_logical(lhs) && num_logical(rhs));
      case Op::kOr:
        return bool_num(num_logical(lhs) || num_logical(rhs));
      default:
        break;
    }
    if (lhs.kind == Kind::kArray || rhs.kind == Kind::kArray) {
      return broadcast_arith(op, lhs, rhs, line);
    }
    const bool both_int = lhs.kind == Kind::kInt && rhs.kind == Kind::kInt;
    switch (op) {
      case Op::kAdd:
        return both_int ? int_num(lhs.i + rhs.i)
                        : real_num(num_real(lhs) + num_real(rhs));
      case Op::kSub:
        return both_int ? int_num(lhs.i - rhs.i)
                        : real_num(num_real(lhs) - num_real(rhs));
      case Op::kMul:
        return both_int ? int_num(lhs.i * rhs.i)
                        : real_num(num_real(lhs) * num_real(rhs));
      case Op::kDiv:
        if (both_int) {
          if (rhs.i == 0) fail("integer division by zero", line);
          return int_num(lhs.i / rhs.i);
        }
        return real_num(num_real(lhs) / num_real(rhs));
      case Op::kPow:
        if (both_int && rhs.i >= 0) {
          long long result = 1, base = lhs.i, exp = rhs.i;
          while (exp > 0) {
            if (exp & 1) result *= base;
            base *= base;
            exp >>= 1;
          }
          return int_num(result);
        }
        return real_num(std::pow(num_real(lhs), num_real(rhs)));
      case Op::kEq:
        return bool_num(num_real(lhs) == num_real(rhs));
      case Op::kNe:
        return bool_num(num_real(lhs) != num_real(rhs));
      case Op::kLt:
        return bool_num(num_real(lhs) < num_real(rhs));
      case Op::kLe:
        return bool_num(num_real(lhs) <= num_real(rhs));
      case Op::kGt:
        return bool_num(num_real(lhs) > num_real(rhs));
      case Op::kGe:
        return bool_num(num_real(lhs) >= num_real(rhs));
      default:
        fail("bad binary operator", line);
    }
  }

  /// Elementwise op; the array operand is a temporary, so it takes the
  /// result in place.
  Num broadcast_arith(Op op, const Num& lhs, const Num& rhs, int line) {
    const Num& arr = lhs.kind == Kind::kArray ? lhs : rhs;
    const std::size_t n = big_[arr.big].array.size();
    if (lhs.kind == Kind::kArray && rhs.kind == Kind::kArray &&
        big_[rhs.big].array.size() != n) {
      fail("array size mismatch in expression", line);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double a = element(lhs, i, n, line);
      const double b = element(rhs, i, n, line);
      double r = 0.0;
      switch (op) {
        case Op::kAdd: r = a + b; break;
        case Op::kSub: r = a - b; break;
        case Op::kMul: r = a * b; break;
        case Op::kDiv: r = a / b; break;
        case Op::kPow: r = std::pow(a, b); break;
        default:
          fail("operator not supported on arrays", line);
      }
      big_[arr.big].array[i] = r;
    }
    return arr;
  }

  /// Element read or slice gather of `v` with the node's subscripts.
  Num index(const Value& v, const Node& n, Frame& f) {
    if (!v.is_array()) fail("subscripts applied to a scalar", n.line);
    const std::size_t rank = n.args.count;
    const Node* const* args = &code_.arg_nodes[n.args.first];
    if (!n.has(detail::kAnySlice)) {
      SmallVec<long long, 4> subs(rank);
      for (std::size_t k = 0; k < rank; ++k) {
        subs[k] = num_int(eval(*args[k], f));
      }
      return real_num(v.array[v.flat_index(subs.data(), rank)]);
    }
    if (rank != v.dims.size()) fail("rank mismatch in slice", n.line);
    std::vector<long long> fixed(rank, -1);
    std::vector<std::size_t> slice_dims;
    for (std::size_t k = 0; k < rank; ++k) {
      if (!args[k]) {
        slice_dims.push_back(k);
      } else {
        fixed[k] = num_int(eval(*args[k], f));
      }
    }
    long long total = 1;
    for (std::size_t k : slice_dims) total *= v.dims[k];
    Value out = Value::make_array({total});
    std::vector<long long> subs(rank);
    for (long long flat = 0; flat < total; ++flat) {
      long long rem = flat;
      for (std::size_t si = slice_dims.size(); si-- > 0;) {
        const std::size_t k = slice_dims[si];
        subs[k] = rem % v.dims[k] + 1;
        rem /= v.dims[k];
      }
      for (std::size_t k = 0; k < rank; ++k) {
        if (fixed[k] >= 0) subs[k] = fixed[k];
      }
      out.array[static_cast<std::size_t>(flat)] = v.array[v.flat_index(subs)];
    }
    return num_of(std::move(out));
  }

  // -------------------------------------------------------------------------
  // Intrinsics.
  // -------------------------------------------------------------------------

  Num intrinsic(const Node& n, Frame& f) {
    const auto which = static_cast<Intrinsic>(n.aux);
    SmallVec<Num, 4> args(n.args.count);
    for (std::size_t k = 0; k < args.size(); ++k) {
      args[k] = eval(arg(n.args, static_cast<std::uint32_t>(k)), f);
    }
    const int line = n.line;
    auto need = [&](std::size_t count) {
      if (args.size() != count) {
        fail(strfmt("intrinsic %s expects %zu arguments",
                    detail::intrinsic_name(which), count),
             line);
      }
    };
    auto elemental1 = [&](double (*fn)(double)) {
      need(1);
      if (args[0].kind == Kind::kArray) {
        for (double& x : big_[args[0].big].array) x = fn(x);
        return args[0];
      }
      return real_num(fn(num_real(args[0])));
    };
    auto is_array = [&](std::size_t k) { return args[k].kind == Kind::kArray; };

    switch (which) {
      case Intrinsic::kAbs:
        need(1);
        if (is_array(0)) {
          for (double& x : big_[args[0].big].array) x = std::abs(x);
          return args[0];
        }
        if (args[0].kind == Kind::kInt) return int_num(std::llabs(args[0].i));
        return real_num(std::abs(num_real(args[0])));
      case Intrinsic::kSqrt:
        return elemental1(+[](double x) { return std::sqrt(x); });
      case Intrinsic::kExp:
        return elemental1(+[](double x) { return std::exp(x); });
      case Intrinsic::kLog:
        return elemental1(+[](double x) { return std::log(x); });
      case Intrinsic::kLog10:
        return elemental1(+[](double x) { return std::log10(x); });
      case Intrinsic::kSin:
        return elemental1(+[](double x) { return std::sin(x); });
      case Intrinsic::kCos:
        return elemental1(+[](double x) { return std::cos(x); });
      case Intrinsic::kTan:
        return elemental1(+[](double x) { return std::tan(x); });
      case Intrinsic::kTanh:
        return elemental1(+[](double x) { return std::tanh(x); });
      case Intrinsic::kAint:
        return elemental1(+[](double x) { return std::trunc(x); });
      case Intrinsic::kMin:
      case Intrinsic::kMax:
        return min_max(which == Intrinsic::kMin, args.data(),
                       args.size(), line);
      case Intrinsic::kMod:
        need(2);
        if (args[0].kind == Kind::kInt && args[1].kind == Kind::kInt) {
          if (args[1].i == 0) fail("mod by zero", line);
          return int_num(args[0].i % args[1].i);
        }
        return real_num(std::fmod(num_real(args[0]), num_real(args[1])));
      case Intrinsic::kSign: {
        need(2);
        const double mag = std::abs(num_real(args[0]));
        return real_num(num_real(args[1]) >= 0.0 ? mag : -mag);
      }
      case Intrinsic::kFloor:
        need(1);
        return int_num(static_cast<long long>(std::floor(num_real(args[0]))));
      case Intrinsic::kNint:
        need(1);
        return int_num(std::llround(num_real(args[0])));
      case Intrinsic::kInt:
        need(1);
        return int_num(num_int(args[0]));
      case Intrinsic::kReal:
        need(1);
        return real_num(num_real(args[0]));
      case Intrinsic::kSum: {
        need(1);
        if (!is_array(0)) return args[0];
        double s = 0.0;
        for (double x : big_[args[0].big].array) s += x;
        return real_num(s);
      }
      case Intrinsic::kMinval:
      case Intrinsic::kMaxval: {
        need(1);
        if (!is_array(0) || big_[args[0].big].array.empty()) {
          fail(std::string(detail::intrinsic_name(which)) +
                   " requires a non-empty array",
               line);
        }
        const std::vector<double>& a = big_[args[0].big].array;
        auto [mn, mx] = std::minmax_element(a.begin(), a.end());
        return real_num(which == Intrinsic::kMinval ? *mn : *mx);
      }
      case Intrinsic::kSize:
        need(1);
        if (!is_array(0)) return int_num(1);
        return int_num(static_cast<long long>(big_[args[0].big].array.size()));
      case Intrinsic::kMerge:
        need(3);
        return num_logical(args[2]) ? args[0] : args[1];
    }
    fail(std::string("unknown intrinsic '") + detail::intrinsic_name(which) +
             "'",
         line);
  }

  Num min_max(bool is_min, const Num* args, std::size_t count, int line) {
    if (count < 2) fail("min/max need at least 2 arguments", line);
    const Num* first_array = nullptr;
    std::size_t n = 0;
    for (std::size_t k = 0; k < count; ++k) {
      if (args[k].kind == Kind::kArray) {
        if (!first_array) first_array = &args[k];
        n = big_[args[k].big].array.size();
      }
    }
    auto pick = [is_min](double best, double x) {
      return is_min ? std::min(best, x) : std::max(best, x);
    };
    if (!first_array) {
      bool all_int = true;
      for (std::size_t k = 0; k < count; ++k) {
        all_int &= (args[k].kind == Kind::kInt);
      }
      double best = num_real(args[0]);
      for (std::size_t k = 0; k < count; ++k) {
        best = pick(best, num_real(args[k]));
      }
      return all_int ? int_num(static_cast<long long>(best)) : real_num(best);
    }
    Value out = Value::make_array({static_cast<long long>(n)});
    out.dims = big_[first_array->big].dims;
    auto at = [this](const Num& v, std::size_t i) {
      return v.kind == Kind::kArray ? big_[v.big].array[i] : num_real(v);
    };
    for (std::size_t i = 0; i < n; ++i) {
      double best = at(args[0], i);
      for (std::size_t k = 0; k < count; ++k) best = pick(best, at(args[k], i));
      out.array[i] = best;
    }
    return num_of(std::move(out));
  }

  // -------------------------------------------------------------------------
  // Calls.
  // -------------------------------------------------------------------------

  /// Binds one actual argument in `caller`: the aliased variable, or a
  /// pooled temporary holding the actual's value.
  Value* bind(const Actual& a, Frame& caller) {
    if (a.mode == Actual::Mode::kAlias) return locate(*a.expr, caller);
    Value* t = acquire();
    *t = to_value(eval(*a.expr, caller));
    return t;
  }

  /// Copies element/slice temporaries back to their actuals.
  void copy_out(const Range& actuals, Value* const* bound, Frame& caller) {
    for (std::uint32_t i = 0; i < actuals.count; ++i) {
      const Actual& a = code_.actuals[actuals.first + i];
      if (a.mode != Actual::Mode::kCopyInOut) continue;
      store(*a.expr, num_of(*bound[i]), caller);
    }
  }

  void init_locals(const Proc& p, Frame& f) {
    for (std::uint32_t k = 0; k < p.inits.count; ++k) {
      const Init& init = code_.inits[p.inits.first + k];
      Value* v = acquire();
      switch (init.how) {
        case Init::How::kParameter: {
          Frame mf{nullptr, p.module};
          *v = to_value(eval(*init.value, mf));
          break;
        }
        case Init::How::kAllocate:
          allocate(*v, *init.alloc, f);
          break;
        case Init::How::kResult:
          reset(*v, Kind::kReal);
          break;
      }
      f.slots[init.slot] = v;
    }
  }

  void run_body(const Proc& p, Frame& f) {
    for (std::uint32_t k = 0; k < p.body.count; ++k) {
      if (exec(*code_.stmt_lists[p.body.first + k], f) == Flow::kReturn) {
        break;
      }
    }
  }

  /// Invokes a subprogram with actual arguments evaluated in `caller`.
  /// Returns the function result (unspecified for subroutines).
  Num invoke(const Proc& p, const Range& actuals, Frame& caller) {
    covered_[p.id] = 1;
    PoolMark mark(this);
    SmallVec<Value*, 16> slots(static_cast<std::size_t>(p.slots));
    SmallVec<Value*, 8> bound(actuals.count);
    for (std::uint32_t i = 0; i < actuals.count; ++i) {
      bound[i] = bind(code_.actuals[actuals.first + i], caller);
      slots[code_.ints[p.param_slots.first + i]] = bound[i];
    }
    Frame f{slots.data(), p.module};
    init_locals(p, f);
    run_body(p, f);
    copy_out(actuals, bound.data(), caller);
    if (p.result_slot < 0) return Num();
    return num_of(*slots[p.result_slot]);
  }

  // -------------------------------------------------------------------------
  // Statements.
  // -------------------------------------------------------------------------

  Flow exec(const Stmt& s, Frame& f) {
    const std::size_t mark = big_.size();
    const Flow flow = exec_stmt(s, f);
    if (big_.size() != mark) big_.resize(mark);
    return flow;
  }

  Flow exec_stmt(const Stmt& s, Frame& f) {
    switch (s.kind) {
      case StmtKind::kAssign:
        assign(s, f);
        return Flow::kNormal;
      case StmtKind::kCall:
        call(s, f);
        return Flow::kNormal;
      case StmtKind::kIf: {
        if (num_logical(eval(*s.a, f))) return exec_block(s.list, f);
        for (std::uint32_t k = 0; k < s.elseifs.count; ++k) {
          const detail::ElseIf& ei = code_.elseifs[s.elseifs.first + k];
          if (num_logical(eval(*ei.cond, f))) return exec_block(ei.body, f);
        }
        return exec_block(s.else_body, f);
      }
      case StmtKind::kDo: {
        const long long from = num_int(eval(*s.b, f));
        const long long to = num_int(eval(*s.c, f));
        const long long step = s.d ? num_int(eval(*s.d, f)) : 1;
        if (step == 0) fail("zero do-loop step", s.line);
        if (!s.a) fail(code_.texts[s.error], s.line);
        PoolMark mark(this);
        Value* var = slot(*s.a, f);
        for (long long i = from; step > 0 ? i <= to : i >= to; i += step) {
          if (var->kind == Kind::kInt) {
            var->integer = i;
          } else {
            *var = Value::make_int(i);
          }
          const Flow flow = exec_block(s.list, f);
          if (flow == Flow::kReturn) return Flow::kReturn;
          if (flow == Flow::kExit) break;
          // kCycle falls through to the next iteration.
        }
        return Flow::kNormal;
      }
      case StmtKind::kDoWhile: {
        std::uint64_t guard = 0;
        while (num_logical(eval(*s.a, f))) {
          if (++guard > 100000000ull) fail("runaway do-while loop", s.line);
          const Flow flow = exec_block(s.list, f);
          if (flow == Flow::kReturn) return Flow::kReturn;
          if (flow == Flow::kExit) break;
          // kCycle continues the loop.
        }
        return Flow::kNormal;
      }
      case StmtKind::kReturn:
        return Flow::kReturn;
      case StmtKind::kExit:
        return Flow::kExit;
      case StmtKind::kCycle:
        return Flow::kCycle;
      case StmtKind::kError:
        fail(code_.texts[s.error], s.line);
    }
    return Flow::kNormal;
  }

  // Control flow (return/exit/cycle) propagates up through nested blocks;
  // only the enclosing loop consumes exit/cycle.
  Flow exec_block(const Range& body, Frame& f) {
    for (std::uint32_t k = 0; k < body.count; ++k) {
      const Flow flow = exec(*code_.stmt_lists[body.first + k], f);
      if (flow != Flow::kNormal) return flow;
    }
    return Flow::kNormal;
  }

  void call(const Stmt& s, Frame& f) {
    if (s.callee) {
      invoke(*s.callee, s.list, f);
      return;
    }
    PoolMark mark(this);
    SmallVec<Value*, 4> args(s.list.count);
    for (std::uint32_t i = 0; i < s.list.count; ++i) {
      args[i] = bind(code_.actuals[s.list.first + i], f);
    }
    if (s.builtin == Builtin::kOutfld) {
      outfld(args.data(), args.size());
    } else {
      shr_rand_uniform(args.data(), args.size());
    }
    copy_out(s.list, args.data(), f);
  }

  // Built-in: history-file output. `call outfld('LABEL', value)` records the
  // label (lower-cased) and the global mean of the value.
  void outfld(Value* const* args, std::size_t n) {
    if (n != 2 || args[0]->kind != Kind::kChar) {
      throw EvalError("outfld expects (character label, value)");
    }
    const Value& v = *args[1];
    double mean = 0.0;
    if (v.is_array()) {
      if (!v.array.empty()) {
        double s = 0.0;
        for (double x : v.array) s += x;
        mean = s / static_cast<double>(v.array.size());
      }
    } else {
      mean = v.as_real();
    }
    outputs_.emplace_back(to_lower(args[0]->chars), mean);
  }

  // Built-in: PRNG fill. `call shr_rand_uniform(x)` fills a scalar or array
  // with uniform deviates from the configured generator (KISS by default;
  // the RAND-MT experiment swaps in the Mersenne Twister).
  void shr_rand_uniform(Value* const* args, std::size_t n) {
    if (n != 1) throw EvalError("shr_rand_uniform expects one argument");
    Value& v = *args[0];
    if (v.is_array()) {
      for (double& x : v.array) x = prng_->uniform();
    } else {
      v.kind = Kind::kReal;
      v.real = prng_->uniform();
    }
  }

  // -------------------------------------------------------------------------
  // Assignment.
  // -------------------------------------------------------------------------

  void assign(const Stmt& s, Frame& f) {
    const Num rhs = eval(*s.b, f);
    if (!s.a) fail(code_.texts[s.error], s.lhs_line);
    store(*s.a, rhs, f);
    if (record_assignments_ && !recorded_[s.key]) {
      recorded_[s.key] = 1;
      assigned_keys_.insert(code_.watch_key(s.key));
    }
    if (any_watches_) {
      WatchStats* w = key_watch_[s.key];
      if (!w && s.fallback_key >= 0) w = key_watch_[s.fallback_key];
      if (w) {
        if (rhs.kind == Kind::kArray) {
          for (double v : big_[rhs.big].array) w->record(v);
        } else if (is_scalar(rhs.kind)) {
          w->record(num_real(rhs));
        }
      }
    }
    ++assignments_executed_;
  }

  void store(const Node& lhs, const Num& rhs, Frame& f) {
    PoolMark mark(this);
    Value& dst = *locate(lhs, f);
    if (indexed(lhs)) {
      store_indexed(dst, lhs, rhs, f);
    } else {
      store_whole(dst, rhs, lhs.line);
    }
  }

  void store_whole(Value& dst, const Num& rhs, int line) {
    switch (dst.kind) {
      case Kind::kReal:
        if (rhs.kind == Kind::kArray) fail("cannot assign array to scalar", line);
        dst.real = num_real(rhs);
        return;
      case Kind::kInt:
        dst.integer = num_int(rhs);
        return;
      case Kind::kLogical:
        dst.logical = num_logical(rhs);
        return;
      case Kind::kChar:
        if (rhs.kind != Kind::kChar) fail("type mismatch", line);
        dst.chars = big_[rhs.big].chars;
        return;
      case Kind::kArray:
        if (rhs.kind == Kind::kArray) {
          const std::vector<double>& src = big_[rhs.big].array;
          if (src.size() != dst.array.size()) {
            fail("whole-array assignment size mismatch", line);
          }
          dst.array = src;
        } else {
          std::fill(dst.array.begin(), dst.array.end(), num_real(rhs));
        }
        return;
      case Kind::kDerived: {
        if (rhs.kind != Kind::kDerived) {
          fail("cannot assign scalar to derived value", line);
        }
        // Component-wise deep copy.
        const DerivedValue& src = *big_[rhs.big].derived;
        for (auto& [name, comp] : dst.derived->components) {
          auto sit = src.components.find(name);
          if (sit != src.components.end()) *comp = *sit->second;
        }
        return;
      }
    }
  }

  void store_indexed(Value& dst, const Node& n, const Num& rhs, Frame& f) {
    if (!dst.is_array()) fail("subscripted assignment to scalar", n.line);
    const std::size_t rank = n.args.count;
    const Node* const* args = &code_.arg_nodes[n.args.first];
    if (!n.has(detail::kAnySlice)) {
      SmallVec<long long, 4> subs(rank);
      for (std::size_t k = 0; k < rank; ++k) {
        subs[k] = num_int(eval(*args[k], f));
      }
      const double v = num_real(rhs);
      dst.array[dst.flat_index(subs.data(), rank)] = v;
      return;
    }
    if (rank != dst.dims.size()) fail("rank mismatch in slice", n.line);
    std::vector<long long> fixed(rank, -1);
    std::vector<std::size_t> slice_dims;
    for (std::size_t k = 0; k < rank; ++k) {
      if (!args[k]) {
        slice_dims.push_back(k);
      } else {
        fixed[k] = num_int(eval(*args[k], f));
      }
    }
    long long total = 1;
    for (std::size_t k : slice_dims) total *= dst.dims[k];
    if (rhs.kind == Kind::kArray &&
        big_[rhs.big].array.size() != static_cast<std::size_t>(total)) {
      fail("slice assignment size mismatch", n.line);
    }
    std::vector<long long> subs(rank);
    for (long long flat = 0; flat < total; ++flat) {
      long long rem = flat;
      for (std::size_t si = slice_dims.size(); si-- > 0;) {
        const std::size_t k = slice_dims[si];
        subs[k] = rem % dst.dims[k] + 1;
        rem /= dst.dims[k];
      }
      for (std::size_t k = 0; k < rank; ++k) {
        if (fixed[k] >= 0) subs[k] = fixed[k];
      }
      const double v = rhs.kind == Kind::kArray
                           ? big_[rhs.big].array[static_cast<std::size_t>(flat)]
                           : num_real(rhs);
      dst.array[dst.flat_index(subs)] = v;
    }
  }

  // -------------------------------------------------------------------------
  // Entry point.
  // -------------------------------------------------------------------------

  ValueSlot call_entry(const std::string& module, const std::string& sub,
                       std::vector<Value> args) {
    auto mit = code_.module_index.find(module);
    if (mit == code_.module_index.end()) {
      throw EvalError("call: unknown module '" + module + "'");
    }
    const auto& callables = code_.modules[mit->second].callables;
    auto cit = callables.find(sub);
    if (cit == callables.end()) {
      throw EvalError("call: unknown subprogram '" + sub + "' in module '" +
                      module + "'");
    }
    const Proc* p = nullptr;
    for (const Proc* cand : cit->second) {
      if (cand->sp->params.size() == args.size()) {
        p = cand;
        break;
      }
    }
    if (!p) {
      fail(strfmt("no procedure overload accepts %zu arguments", args.size()));
    }
    prepare();
    covered_[p->id] = 1;
    PoolMark mark(this);
    SmallVec<Value*, 16> slots(static_cast<std::size_t>(p->slots));
    for (std::size_t i = 0; i < args.size(); ++i) {
      Value* t = acquire();
      *t = std::move(args[i]);
      slots[code_.ints[p->param_slots.first + i]] = t;
    }
    Frame f{slots.data(), p->module};
    init_locals(*p, f);
    run_body(*p, f);
    big_.clear();
    if (p->result_slot < 0) return {};
    return std::make_shared<Value>(*slots[p->result_slot]);
  }
};

// ===========================================================================
// Load-time parameter evaluation.
// ===========================================================================

void detail::evaluate_parameters(Code& code) {
  // Parameters may reference imported parameters that are not evaluated
  // yet: retry to a fixpoint. No module variable exists at this point.
  Interpreter::Impl run(code);
  run.globals_.resize(code.globals.size());
  std::vector<char> ready(code.params.size(), 0);
  run.params_ready_ = &ready;
  for (;;) {
    bool progress = false;
    bool pending = false;
    for (const detail::ModuleCode& mc : code.modules) {
      for (int pi : mc.param_indices) {
        if (ready[pi]) continue;
        const detail::Param& p = code.params[pi];
        if (!p.init) {
          fail("parameter '" + p.decl->name + "' lacks a value", p.decl->line);
        }
        try {
          Interpreter::Impl::Frame mf{nullptr, p.module};
          code.param_values[pi] = run.to_value(run.eval(*p.init, mf));
          run.big_.clear();
          ready[pi] = 1;
          progress = true;
        } catch (const EvalError&) {
          pending = true;  // dependency not ready yet; retry next round
        }
      }
    }
    if (!pending) break;
    if (!progress) fail("circular or unresolvable parameter definitions");
  }
}

// ===========================================================================
// Public interface.
// ===========================================================================

Interpreter::Interpreter(std::vector<const lang::Module*> modules)
    : owned_program_(std::make_unique<Program>(std::move(modules))),
      impl_(std::make_unique<Impl>(owned_program_->code())) {
  impl_->allocate_globals();
}

Interpreter::Interpreter(const Program& program)
    : impl_(std::make_unique<Impl>(program.code())) {
  impl_->allocate_globals();
}

Interpreter::~Interpreter() = default;

void Interpreter::set_fma(const std::string& module, bool enabled) {
  auto it = impl_->code_.module_index.find(module);
  if (it == impl_->code_.module_index.end()) {
    throw EvalError("set_fma: unknown module '" + module + "'");
  }
  impl_->fma_[it->second] = enabled;
}

void Interpreter::set_fma_all(bool enabled) {
  std::fill(impl_->fma_.begin(), impl_->fma_.end(), enabled);
}

void Interpreter::set_reassoc(const std::string& module, bool enabled) {
  auto it = impl_->code_.module_index.find(module);
  if (it == impl_->code_.module_index.end()) {
    throw EvalError("set_reassoc: unknown module '" + module + "'");
  }
  impl_->reassoc_[it->second] = enabled;
}

void Interpreter::set_reassoc_all(bool enabled) {
  std::fill(impl_->reassoc_.begin(), impl_->reassoc_.end(), enabled);
}

void Interpreter::set_prng(std::unique_ptr<Prng> prng) {
  impl_->prng_ = std::move(prng);
}

void Interpreter::add_watch(const WatchKey& key) {
  impl_->watch_stats_.emplace(key, WatchStats{});
  impl_->any_watches_ = true;
  impl_->watches_dirty_ = true;
}

const std::unordered_map<WatchKey, WatchStats, WatchKeyHash>&
Interpreter::watch_stats() const {
  return impl_->watch_stats_;
}

std::unordered_map<WatchKey, WatchStats, WatchKeyHash>
Interpreter::take_watch_stats() {
  auto taken = std::move(impl_->watch_stats_);
  impl_->watch_stats_.clear();
  impl_->any_watches_ = false;
  impl_->watches_dirty_ = true;  // key_watch_ points into `taken`
  return taken;
}

void Interpreter::set_record_assignments(bool enabled) {
  impl_->record_assignments_ = enabled;
}

const std::unordered_set<WatchKey, WatchKeyHash>& Interpreter::assigned_keys()
    const {
  return impl_->assigned_keys_;
}

const CoverageRecorder& Interpreter::coverage() const {
  const Code& code = impl_->code_;
  for (std::size_t i = 0; i < code.procs.size(); ++i) {
    if (!impl_->covered_[i]) continue;
    const Proc& p = code.procs[i];
    impl_->coverage_.record(code.modules[p.module].ast->name, p.sp->name);
  }
  return impl_->coverage_;
}

const std::vector<std::pair<std::string, double>>& Interpreter::outputs()
    const {
  return impl_->outputs_;
}

std::uint64_t Interpreter::assignments_executed() const {
  return impl_->assignments_executed_;
}

ValueSlot Interpreter::call(const std::string& module,
                            const std::string& subprogram,
                            std::vector<Value> args) {
  return impl_->call_entry(module, subprogram, std::move(args));
}

Value* Interpreter::module_var(const std::string& module,
                               const std::string& name) {
  const Code& code = impl_->code_;
  auto it = code.module_index.find(module);
  if (it == code.module_index.end()) {
    throw EvalError("module_var: unknown module '" + module + "'");
  }
  const auto& vars = code.modules[it->second].vars;
  auto vit = vars.find(name);
  if (vit == vars.end()) {
    throw EvalError("module_var: unknown variable '" + name + "' in '" +
                    module + "'");
  }
  return &impl_->globals_[vit->second];
}

}  // namespace rca::interp
