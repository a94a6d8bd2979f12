#include "interp/program.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <map>
#include <tuple>

#include "interp/compiled.hpp"
#include "interp/intrinsics.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace rca::interp {

namespace {

using detail::Intrinsic;

constexpr const char* kIntrinsicNames[] = {
    "abs",  "sqrt", "exp",  "log",    "log10",  "sin",  "cos",  "tan",
    "tanh", "aint", "min",  "max",    "mod",    "sign", "floor", "nint",
    "int",  "real", "sum",  "minval", "maxval", "size", "merge",
};

const std::unordered_map<std::string, Intrinsic>& intrinsic_table() {
  static const std::unordered_map<std::string, Intrinsic> kTable = [] {
    std::unordered_map<std::string, Intrinsic> t;
    for (std::size_t i = 0; i < std::size(kIntrinsicNames); ++i) {
      t[kIntrinsicNames[i]] = static_cast<Intrinsic>(i);
    }
    return t;
  }();
  return kTable;
}

}  // namespace

bool is_intrinsic_function(const std::string& name) {
  return intrinsic_table().count(name) != 0;
}

namespace detail {

const char* intrinsic_name(Intrinsic i) {
  return kIntrinsicNames[static_cast<std::size_t>(i)];
}

WatchKey Code::watch_key(std::int32_t id) const {
  const KeyRef& k = keys[id];
  return WatchKey{modules[k.module].ast->name,
                  k.proc < 0 ? std::string() : procs[k.proc].sp->name,
                  *k.name};
}

namespace {

/// (module, subprogram, name) of an interned key, as string views.
auto key_tuple(const Code& c, std::int32_t id) {
  static const std::string kNone;
  const KeyRef& k = c.keys[id];
  return std::tie(c.modules[k.module].ast->name,
                  k.proc < 0 ? kNone : c.procs[k.proc].sp->name, *k.name);
}

}  // namespace

std::int32_t Code::find_key(const WatchKey& key) const {
  const auto want = std::tie(key.module, key.subprogram, key.name);
  auto it = std::lower_bound(
      key_order.begin(), key_order.end(), want,
      [this](std::int32_t id, const auto& w) { return key_tuple(*this, id) < w; });
  if (it == key_order.end() || key_tuple(*this, *it) != want) return -1;
  return *it;
}

namespace {

using lang::Expr;
using lang::ExprKind;
using lang::Op;

[[noreturn]] void fail(const std::string& msg, int line = 0) {
  if (line > 0) throw EvalError(strfmt("line %d: %s", line, msg.c_str()));
  throw EvalError(msg);
}

bool is_slice_marker(const Expr& e) {
  return e.is_ref() && e.segments.size() == 1 &&
         e.segments[0].name == "__slice__" && !e.segments[0].has_args;
}

struct TypeEntry {
  const lang::DerivedTypeDef* def = nullptr;
  int home = 0;
};

struct Imported {
  int home = 0;
  std::string remote;
};

/// Build-time name tables of one module (the executor never needs them).
struct ModuleScope {
  std::unordered_map<std::string, int> params;  // own parameter -> index
  std::unordered_map<std::string, Imported> imported;
  std::unordered_map<std::string, TypeEntry> types;
};

struct Local {
  int slot = 0;
  const lang::VarDecl* decl = nullptr;  // null for undeclared dummies
};

using LocalMap = std::unordered_map<std::string, Local>;

/// Where a name is being compiled: a subprogram body (locals set) or module
/// scope (parameter values, module-variable and component allocation).
struct Scope {
  int module = 0;
  const Proc* proc = nullptr;
  const LocalMap* locals = nullptr;
};

struct Resolved {
  Where where = Where::kLocal;
  int index = 0;
  int owner = 0;                        // owning module (watch identity)
  const lang::VarDecl* decl = nullptr;  // for derived-type layouts
  int decl_module = 0;                  // scope the decl's type names use
};

class Compiler {
 public:
  explicit Compiler(Code& code) : c_(code) { c_.texts.emplace_back(); }

  void load(std::vector<const lang::Module*> mods) {
    // Pass 1: modules, own subprograms and types.
    for (const lang::Module* m : mods) {
      if (c_.module_index.count(m->name)) {
        fail("duplicate module '" + m->name + "'");
      }
      const int mi = static_cast<int>(c_.modules.size());
      c_.module_index[m->name] = mi;
      ModuleCode mc;
      mc.ast = m;
      ModuleScope scope;
      for (const auto& sp : m->subprograms) {
        Proc& p = c_.procs.emplace_back();
        p.sp = &sp;
        p.id = static_cast<int>(c_.procs.size()) - 1;
        p.module = mi;
        mc.callables[sp.name].push_back(&p);
      }
      for (const auto& t : m->types) scope.types[t.name] = TypeEntry{&t, mi};
      c_.modules.push_back(std::move(mc));
      scopes_.push_back(std::move(scope));
    }
    // Pass 1b: interface blocks (after own subprograms exist).
    for (ModuleCode& mc : c_.modules) {
      for (const auto& iface : mc.ast->interfaces) {
        for (const auto& proc : iface.procedures) {
          auto it = mc.callables.find(proc);
          if (it == mc.callables.end()) {
            fail("interface '" + iface.name + "' names unknown procedure '" +
                 proc + "' in module " + mc.ast->name);
          }
          const std::vector<const Proc*> found = it->second;
          auto& generic = mc.callables[iface.name];
          generic.insert(generic.end(), found.begin(), found.end());
        }
      }
    }
    // Pass 2: use-imports (module-level plus hoisted subprogram-level uses;
    // chained use is intentionally not followed, matching the paper's §4.2
    // treatment).
    for (std::size_t mi = 0; mi < c_.modules.size(); ++mi) {
      const lang::Module* m = c_.modules[mi].ast;
      const int dst = static_cast<int>(mi);
      auto process_use = [this, dst, m](const lang::UseStmt& use) {
        auto src_it = c_.module_index.find(use.module);
        if (src_it == c_.module_index.end()) {
          fail("module '" + m->name + "' uses unknown module '" + use.module +
               "'", use.line);
        }
        const int src = src_it->second;
        const lang::Module* src_ast = c_.modules[src].ast;
        if (use.has_only) {
          for (const auto& r : use.renames) {
            import_entity(dst, src, r.local, r.remote, use.line);
          }
          return;
        }
        // Import-all: every declaration, subprogram, interface, type.
        for (const auto& d : src_ast->decls) {
          import_entity(dst, src, d.name, d.name, use.line);
        }
        for (const auto& sp : src_ast->subprograms) {
          import_entity(dst, src, sp.name, sp.name, use.line);
        }
        for (const auto& iface : src_ast->interfaces) {
          import_entity(dst, src, iface.name, iface.name, use.line);
        }
        for (const auto& t : src_ast->types) {
          import_entity(dst, src, t.name, t.name, use.line);
        }
      };
      for (const auto& use : m->uses) process_use(use);
      for (const auto& sp : m->subprograms) {
        for (const auto& use : sp.uses) process_use(use);
      }
    }
    // Pass 3: index parameters (first declaration wins) and module
    // variables (allocated in module/declaration order; the last
    // declaration of a name is the one visible).
    std::vector<std::pair<const lang::VarDecl*, int>> global_decls;
    for (std::size_t mi = 0; mi < c_.modules.size(); ++mi) {
      ModuleCode& mc = c_.modules[mi];
      for (const auto& d : mc.ast->decls) {
        if (d.is_parameter) {
          if (scopes_[mi].params.count(d.name)) continue;
          const int pi = static_cast<int>(c_.params.size());
          scopes_[mi].params[d.name] = pi;
          mc.param_indices.push_back(pi);
          c_.params.push_back(Param{&d, static_cast<int>(mi), nullptr});
          continue;
        }
        mc.vars[d.name] = static_cast<int>(global_decls.size());
        global_decls.emplace_back(&d, static_cast<int>(mi));
      }
    }
    c_.param_values.resize(c_.params.size());
    // Pass 4: compile parameter values, module-variable allocations and
    // every subprogram.
    global_decls_ = &global_decls;
    for (Param& p : c_.params) {
      if (p.decl->init) p.init = expr(*p.decl->init, Scope{p.module});
    }
    for (const auto& [decl, module] : global_decls) {
      c_.globals.push_back(alloc(*decl, Scope{module}));
    }
    for (Proc& p : c_.procs) compile_proc(p);
    global_decls_ = nullptr;
    // Sorted key index for watch lookups.
    c_.key_order.resize(c_.keys.size());
    for (std::size_t i = 0; i < c_.keys.size(); ++i) {
      c_.key_order[i] = static_cast<std::int32_t>(i);
    }
    std::sort(c_.key_order.begin(), c_.key_order.end(),
              [this](std::int32_t a, std::int32_t b) {
                return key_tuple(c_, a) < key_tuple(c_, b);
              });
  }

 private:
  Code& c_;
  std::vector<ModuleScope> scopes_;
  std::unordered_map<const lang::DerivedTypeDef*, const Layout*> layouts_;
  const std::vector<std::pair<const lang::VarDecl*, int>>* global_decls_ =
      nullptr;
  // Interning tables: (module, subprogram, name) -> key id, message ->
  // text id.
  std::map<std::tuple<int, std::string, std::string>, int> key_ids_;
  std::unordered_map<std::string, std::uint32_t> text_ids_;
  // Nodes that can never fail are shared, keeping the program small: a
  // model holds one per corpus for its lifetime.
  std::map<std::pair<Where, int>, const Node*> shared_vars_;
  std::map<std::pair<std::uint64_t, bool>, const Node*> shared_numbers_;

  void import_entity(int dst, int src, const std::string& local,
                     const std::string& remote, int line) {
    if (c_.modules[src].ast->find_decl(remote)) {
      scopes_[dst].imported[local] = Imported{src, remote};
      return;
    }
    auto cit = c_.modules[src].callables.find(remote);
    if (cit != c_.modules[src].callables.end()) {
      const std::vector<const Proc*> found = cit->second;
      auto& vec = c_.modules[dst].callables[local];
      vec.insert(vec.end(), found.begin(), found.end());
      return;
    }
    auto tit = scopes_[src].types.find(remote);
    if (tit != scopes_[src].types.end()) {
      const TypeEntry entry = tit->second;
      scopes_[dst].types[local] = entry;
      return;
    }
    fail("use of unknown entity '" + remote + "' from module '" +
         c_.modules[src].ast->name + "'", line);
  }

  // -------------------------------------------------------------------------
  // Names.
  // -------------------------------------------------------------------------

  /// Scope lookup order: locals, module variables, use-imported variables
  /// and parameters, own parameters.
  bool resolve(const Scope& s, const std::string& name, Resolved* out) const {
    if (s.locals) {
      auto lit = s.locals->find(name);
      if (lit != s.locals->end()) {
        *out = Resolved{Where::kLocal, lit->second.slot, s.module,
                        lit->second.decl, s.module};
        return true;
      }
    }
    // Module-scope expressions run while module variables are still being
    // allocated, so their reads are checked against what exists.
    const Where global = s.locals ? Where::kGlobal : Where::kGlobalAtLoad;
    const ModuleCode& mc = c_.modules[s.module];
    auto vit = mc.vars.find(name);
    if (vit != mc.vars.end()) {
      *out = Resolved{global, vit->second, s.module,
                      (*global_decls_)[vit->second].first, s.module};
      return true;
    }
    const ModuleScope& scope = scopes_[s.module];
    auto iit = scope.imported.find(name);
    if (iit != scope.imported.end()) {
      const int home = iit->second.home;
      auto hit = c_.modules[home].vars.find(iit->second.remote);
      if (hit != c_.modules[home].vars.end()) {
        *out = Resolved{global, hit->second, home,
                        (*global_decls_)[hit->second].first, home};
        return true;
      }
      auto pit = scopes_[home].params.find(iit->second.remote);
      if (pit != scopes_[home].params.end()) {
        *out = Resolved{Where::kParam, pit->second, home, nullptr, home};
        return true;
      }
    }
    auto pit = scope.params.find(name);
    if (pit != scope.params.end()) {
      *out = Resolved{Where::kParam, pit->second, s.module, nullptr, s.module};
      return true;
    }
    return false;
  }

  const TypeEntry* find_type(int module, const std::string& name) const {
    auto it = scopes_[module].types.find(name);
    return it == scopes_[module].types.end() ? nullptr : &it->second;
  }

  const std::vector<const Proc*>* callables(const Scope& s,
                                            const std::string& name) const {
    const auto& map = c_.modules[s.module].callables;
    auto it = map.find(name);
    return it == map.end() ? nullptr : &it->second;
  }

  static const Proc* pick_overload(const std::vector<const Proc*>& cands,
                                   std::size_t nargs) {
    for (const Proc* p : cands) {
      if (p->sp->params.size() == nargs) return p;
    }
    return nullptr;
  }

  /// `proc` < 0 keys a module-level name.
  int intern_key(int module, int proc, const std::string& name) {
    const std::string& sub = proc < 0 ? std::string() : c_.procs[proc].sp->name;
    auto [it, inserted] = key_ids_.try_emplace(
        std::make_tuple(module, sub, name), static_cast<int>(c_.keys.size()));
    if (inserted) c_.keys.push_back(KeyRef{module, proc, &name});
    return it->second;
  }

  std::uint32_t text(const std::string& msg) {
    auto [it, inserted] = text_ids_.try_emplace(
        msg, static_cast<std::uint32_t>(c_.texts.size()));
    if (inserted) c_.texts.push_back(msg);
    return it->second;
  }

  template <typename T>
  static Range append(std::vector<T>* pool, const std::vector<T>& items) {
    Range r{static_cast<std::uint32_t>(pool->size()),
            static_cast<std::uint32_t>(items.size())};
    pool->insert(pool->end(), items.begin(), items.end());
    return r;
  }

  // -------------------------------------------------------------------------
  // Expressions.
  // -------------------------------------------------------------------------

  Node& node(NodeKind kind, int line) {
    Node& n = c_.nodes.emplace_back();
    n.kind = kind;
    n.line = line;
    return n;
  }

  const Node* error(const std::string& msg, int line) {
    Node& n = node(NodeKind::kError, line);
    n.text = text(msg);
    return &n;
  }

  Node& var_node(NodeKind kind, const Resolved& r, int line) {
    Node& n = node(kind, line);
    n.aux = static_cast<std::uint8_t>(r.where);
    n.index = r.index;
    return n;
  }

  /// A whole-variable reference; frame-slot and module-variable reads are
  /// shared (they cannot fail, so their line is never reported).
  const Node* var(const Resolved& r, int line) {
    if (r.where != Where::kLocal && r.where != Where::kGlobal) {
      return &var_node(NodeKind::kVar, r, line);
    }
    const Node*& shared = shared_vars_[{r.where, r.index}];
    if (!shared) shared = &var_node(NodeKind::kVar, r, line);
    return shared;
  }

  /// Compiles subscripts into arg_nodes (a null entry marks `:`).
  void subscripts(const std::vector<lang::ExprPtr>& args, const Scope& s,
                  Node* n) {
    std::vector<const Node*> compiled;
    for (const auto& a : args) {
      if (is_slice_marker(*a)) {
        n->flags |= kAnySlice;
        compiled.push_back(nullptr);
      } else {
        compiled.push_back(expr(*a, s));
      }
    }
    n->args = append(&c_.arg_nodes, compiled);
  }

  const Node* expr(const Expr& e, const Scope& s) {
    switch (e.kind) {
      case ExprKind::kNumber: {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &e.number, sizeof bits);
        const Node*& shared = shared_numbers_[{bits, e.is_int}];
        if (!shared) {
          Node& n = node(NodeKind::kNumber, e.line);
          n.num = e.number;
          if (e.is_int) n.flags |= kIsInt;
          shared = &n;
        }
        return shared;
      }
      case ExprKind::kString: {
        Node& n = node(NodeKind::kString, e.line);
        n.text = text(e.text);
        return &n;
      }
      case ExprKind::kLogical: {
        Node& n = node(NodeKind::kLogical, e.line);
        if (e.bool_value) n.flags |= kFlag;
        return &n;
      }
      case ExprKind::kRef:
        return ref(e, s);
      case ExprKind::kUnary: {
        const Node* operand = expr(*e.rhs, s);
        Node& n = node(NodeKind::kUnary, e.line);
        n.op = static_cast<std::uint8_t>(e.op);
        n.rhs = operand;
        return &n;
      }
      case ExprKind::kBinary:
        return binary(e, s);
    }
    return error("unreachable expression kind", e.line);
  }

  const Node* binary(const Expr& e, const Scope& s) {
    const Node* lhs = expr(*e.lhs, s);
    const Node* rhs = expr(*e.rhs, s);
    Node& n = node(NodeKind::kBinary, e.line);
    n.op = static_cast<std::uint8_t>(e.op);
    n.lhs = lhs;
    n.rhs = rhs;
    if (e.op != Op::kAdd && e.op != Op::kSub) return &n;
    // FMA contraction sites: a*b + c, a*b - c (mul left), c + a*b.
    if (e.lhs->kind == ExprKind::kBinary && e.lhs->op == Op::kMul) {
      n.flags |= kFmaLeft;
    } else if (e.op == Op::kAdd && e.rhs->kind == ExprKind::kBinary &&
               e.rhs->op == Op::kMul) {
      n.flags |= kFmaRight;
    }
    // Reassociation sites: the left spine of a +/- chain of >= 3 terms.
    if (e.lhs->kind == ExprKind::kBinary &&
        (e.lhs->op == Op::kAdd || e.lhs->op == Op::kSub)) {
      n.flags |= kReassocSite;
    }
    return &n;
  }

  // Reference: variable, array element/slice, derived-type chain, intrinsic
  // or user function call — disambiguated here, once.
  const Node* ref(const Expr& e, const Scope& s) {
    const lang::RefSegment& head = e.segments.front();
    if (e.segments.size() > 1) return chain(e, s);
    Resolved r;
    if (resolve(s, head.name, &r)) {
      if (!head.has_args) return var(r, e.line);
      Node& n = var_node(NodeKind::kIndexed, r, e.line);
      subscripts(head.args, s, &n);
      return &n;
    }
    if (head.has_args) {
      if (const auto* cands = callables(s, head.name)) {
        return function_call(*cands, head.args, s, e.line);
      }
      auto iit = intrinsic_table().find(head.name);
      if (iit != intrinsic_table().end()) {
        std::vector<const Node*> args;
        for (const auto& a : head.args) args.push_back(expr(*a, s));
        Node& n = node(NodeKind::kIntrinsic, e.line);
        n.aux = static_cast<std::uint8_t>(iit->second);
        n.args = append(&c_.arg_nodes, args);
        return &n;
      }
    }
    return error("unknown name '" + head.name + "' in module '" +
                     c_.modules[s.module].ast->name + "'",
                 e.line);
  }

  const Node* function_call(const std::vector<const Proc*>& cands,
                            const std::vector<lang::ExprPtr>& args,
                            const Scope& s, int line) {
    const Proc* p = pick_overload(cands, args.size());
    if (!p) {
      return error(strfmt("no procedure overload accepts %zu arguments",
                          args.size()),
                   line);
    }
    if (!p->sp->is_function()) {
      return error("subroutine '" + p->sp->name + "' used as a function",
                   line);
    }
    std::vector<Actual> actuals;
    for (const auto& a : args) actuals.push_back(actual(*a, s));
    Node& n = node(NodeKind::kCall, line);
    n.callee = p;
    n.args = append(&c_.actuals, actuals);
    return &n;
  }

  /// Multi-segment chain `a%b(i)%c(j)` down to its final component.
  const Node* chain(const Expr& e, const Scope& s) {
    const lang::RefSegment& head = e.segments.front();
    if (head.has_args) {
      return error("indexed derived-type bases are not supported ('" +
                       head.name + "(...)%...')",
                   e.line);
    }
    Resolved r;
    if (!resolve(s, head.name, &r)) {
      return error("unknown name '" + head.name + "'", e.line);
    }
    // Static layout: follow declared derived types through the chain.
    const lang::DerivedTypeDef* def = nullptr;
    int home = r.decl_module;
    if (r.decl && r.decl->type.is_derived()) {
      if (const TypeEntry* t = find_type(home, r.decl->type.derived_name)) {
        def = t->def;
        home = t->home;
      }
    }
    std::vector<CompStep> steps;
    for (std::size_t i = 1; i < e.segments.size(); ++i) {
      CompStep step;
      step.name = &e.segments[i].name;
      step.has_args = e.segments[i].has_args;
      step.expect = def;
      const lang::VarDecl* comp = nullptr;
      if (def) {
        for (std::size_t k = 0; k < def->components.size(); ++k) {
          if (def->components[k].name == *step.name) {
            step.index = static_cast<int>(k);
            comp = &def->components[k];
            break;
          }
        }
      }
      def = nullptr;
      if (comp && comp->type.is_derived()) {
        if (const TypeEntry* t = find_type(home, comp->type.derived_name)) {
          def = t->def;
          home = t->home;
        }
      }
      steps.push_back(step);
    }
    Node& n = var_node(NodeKind::kComponent, r, e.line);
    n.steps = append(&c_.steps, steps);
    if (e.segments.back().has_args) subscripts(e.segments.back().args, s, &n);
    return &n;
  }

  /// Fortran-style argument association: whole variables (including derived
  /// components) alias; element/slice actuals get a temporary with copy-out;
  /// anything else is a by-value temporary.
  Actual actual(const Expr& a, const Scope& s) {
    Actual out;
    if (a.is_ref()) {
      const bool indexed = a.segments.back().has_args;
      Resolved r;
      const bool is_var = resolve(s, a.base_name(), &r);
      if (a.segments.size() > 1 || is_var) {
        out.mode = indexed ? Actual::Mode::kCopyInOut : Actual::Mode::kAlias;
        out.expr = a.segments.size() > 1 || indexed ? expr(a, s)
                                                    : var(r, a.line);
        return out;
      }
    }
    out.expr = expr(a, s);
    return out;
  }

  // -------------------------------------------------------------------------
  // Declarations.
  // -------------------------------------------------------------------------

  const Alloc* alloc(const lang::VarDecl& d, const Scope& s) {
    Alloc a;
    a.decl = &d;
    a.module = s.module;
    if (d.type.kind == lang::TypeKind::kDerived) {
      const TypeEntry* t = find_type(s.module, d.type.derived_name);
      if (!t) {
        a.error = text("unknown derived type '" + d.type.derived_name + "'");
      } else {
        a.layout = layout(*t);
      }
    } else {
      std::vector<const Node*> dims;
      for (const auto& dim : d.dims) dims.push_back(expr(*dim, s));
      a.dims = append(&c_.arg_nodes, dims);
      if (d.init) a.init = expr(*d.init, s);
    }
    return &c_.allocs.emplace_back(a);
  }

  const Layout* layout(const TypeEntry& t) {
    auto it = layouts_.find(t.def);
    if (it != layouts_.end()) return it->second;
    Layout* l = &c_.layouts.emplace_back();
    l->def = t.def;
    layouts_[t.def] = l;
    // Components allocate in the type's home module scope.
    for (const auto& comp : t.def->components) {
      l->components.push_back(alloc(comp, Scope{t.home}));
    }
    return l;
  }

  void compile_proc(Proc& p) {
    const lang::Subprogram& sp = *p.sp;
    LocalMap locals;
    int slots = 0;
    std::vector<std::int32_t> param_slots;
    for (const auto& name : sp.params) {
      auto it = locals.find(name);
      if (it == locals.end()) {
        it = locals.emplace(name, Local{slots++, nullptr}).first;
      }
      param_slots.push_back(it->second.slot);
    }
    p.param_slots = append(&c_.ints, param_slots);
    const Scope module_scope{p.module};
    std::vector<Init> inits;
    for (const auto& d : sp.decls) {
      auto it = locals.find(d.name);
      if (it != locals.end()) {
        if (!it->second.decl) it->second.decl = &d;  // dummy's declaration
        continue;
      }
      Init init;
      init.slot = slots++;
      if (d.is_parameter) {
        init.how = Init::How::kParameter;
        init.value = d.init ? expr(*d.init, module_scope)
                            : error("parameter '" + d.name +
                                        "' lacks a value",
                                    d.line);
      } else {
        // Extents see the dummies and the locals declared before this one.
        init.how = Init::How::kAllocate;
        init.alloc = alloc(d, Scope{p.module, &p, &locals});
      }
      inits.push_back(init);
      locals.emplace(d.name, Local{init.slot, &d});
    }
    if (sp.is_function()) {
      auto it = locals.find(sp.result_name);
      if (it == locals.end()) {
        Init init;
        init.how = Init::How::kResult;
        init.slot = slots++;
        inits.push_back(init);
        it = locals.emplace(sp.result_name, Local{init.slot, nullptr}).first;
      }
      p.result_slot = it->second.slot;
    }
    p.inits = append(&c_.inits, inits);
    p.slots = slots;
    p.body = block(sp.body, Scope{p.module, &p, &locals});
  }

  // -------------------------------------------------------------------------
  // Statements.
  // -------------------------------------------------------------------------

  Range block(const std::vector<lang::StmtPtr>& body, const Scope& s) {
    std::vector<const Stmt*> out;
    out.reserve(body.size());
    for (const auto& st : body) out.push_back(stmt(*st, s));
    return append(&c_.stmt_lists, out);
  }

  const Stmt* stmt(const lang::Stmt& st, const Scope& s) {
    Stmt& out = c_.stmts.emplace_back();
    out.line = st.line;
    switch (st.kind) {
      case lang::StmtKind::kAssign:
        out.kind = StmtKind::kAssign;
        assignment(st, s, &out);
        break;
      case lang::StmtKind::kCall:
        out.kind = StmtKind::kCall;
        call(st, s, &out);
        break;
      case lang::StmtKind::kIf: {
        out.kind = StmtKind::kIf;
        out.a = expr(*st.cond, s);
        out.list = block(st.body, s);
        std::vector<ElseIf> elseifs;
        for (const auto& ei : st.elseifs) {
          ElseIf compiled;
          compiled.cond = expr(*ei.cond, s);
          compiled.body = block(ei.body, s);
          elseifs.push_back(compiled);
        }
        out.elseifs = append(&c_.elseifs, elseifs);
        out.else_body = block(st.else_body, s);
        break;
      }
      case lang::StmtKind::kDo: {
        out.kind = StmtKind::kDo;
        out.b = expr(*st.from, s);
        out.c = expr(*st.to, s);
        if (st.step) out.d = expr(*st.step, s);
        Resolved r;
        if (resolve(s, st.do_var, &r)) {
          out.a = var(r, st.line);
        } else {
          out.error = text("undeclared do variable '" + st.do_var + "'");
        }
        out.list = block(st.body, s);
        break;
      }
      case lang::StmtKind::kDoWhile:
        out.kind = StmtKind::kDoWhile;
        out.a = expr(*st.cond, s);
        out.list = block(st.body, s);
        break;
      case lang::StmtKind::kReturn:
        out.kind = StmtKind::kReturn;
        break;
      case lang::StmtKind::kExit:
        out.kind = StmtKind::kExit;
        break;
      case lang::StmtKind::kCycle:
        out.kind = StmtKind::kCycle;
        break;
    }
    return &out;
  }

  void assignment(const lang::Stmt& st, const Scope& s, Stmt* out) {
    const Expr& lhs = *st.lhs;
    out->b = expr(*st.rhs, s);
    out->lhs_line = lhs.line;
    int owner_module = s.module;
    int owner_proc = s.proc ? s.proc->id : -1;
    if (lhs.segments.size() == 1) {
      Resolved r;
      if (!resolve(s, lhs.base_name(), &r)) {
        out->error =
            text("assignment to unknown variable '" + lhs.base_name() + "'");
        return;
      }
      const lang::RefSegment& head = lhs.segments.front();
      if (head.has_args) {
        Node& n = var_node(NodeKind::kIndexed, r, lhs.line);
        subscripts(head.args, s, &n);
        out->a = &n;
      } else {
        out->a = var(r, lhs.line);
      }
      if (r.where != Where::kLocal) {
        owner_module = r.owner;
        owner_proc = -1;
      }
    } else {
      // Derived components are watched at the site of assignment.
      out->a = chain(lhs, s);
    }
    const std::string& name = lhs.canonical_name();
    if (owner_proc >= 0) out->fallback_key = intern_key(owner_module, -1, name);
    out->key = intern_key(owner_module, owner_proc, name);
  }

  void call(const lang::Stmt& st, const Scope& s, Stmt* out) {
    if (const auto* cands = callables(s, st.callee)) {
      out->callee = pick_overload(*cands, st.args.size());
      if (!out->callee) {
        out->kind = StmtKind::kError;
        out->error = text(strfmt("no procedure overload accepts %zu arguments",
                                 st.args.size()));
        return;
      }
    } else if (st.callee == "outfld") {
      out->builtin = Builtin::kOutfld;
    } else if (st.callee == "shr_rand_uniform") {
      out->builtin = Builtin::kShrRandUniform;
    } else {
      out->kind = StmtKind::kError;
      out->error = text("unknown subroutine '" + st.callee +
                        "' called from module '" +
                        c_.modules[s.module].ast->name + "'");
      return;
    }
    std::vector<Actual> actuals;
    for (const auto& a : st.args) actuals.push_back(actual(*a, s));
    out->list = append(&c_.actuals, actuals);
  }
};

}  // namespace
}  // namespace detail

Program::Program(std::vector<const lang::Module*> modules)
    : code_(std::make_unique<detail::Code>()) {
  detail::Compiler(*code_).load(std::move(modules));
  detail::evaluate_parameters(*code_);
}

Program::~Program() = default;

}  // namespace rca::interp
