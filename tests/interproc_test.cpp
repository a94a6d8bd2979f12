// Interprocedural analysis tests: call-graph construction and SCC order,
// mod/ref summary classification (dummies, globals, purity, recursion),
// the summary-consulting dataflow rewiring (revealed use-before-def,
// summary-pruned dead stores, intent violations through the call chain),
// the two interprocedural-only rules, FP-sensitivity sites and reports,
// one-level re-export resolution, summary-informed metagraph pruning, and
// the SCC-cone incremental invalidation contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "analysis/callgraph.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/fpsense.hpp"
#include "analysis/passes.hpp"
#include "analysis/summaries.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "meta/builder.hpp"
#include "meta/serialize.hpp"
#include "model/corpus.hpp"
#include "obs/obs.hpp"
#include "slice/slicer.hpp"

namespace rca::analysis {
namespace {

/// Call-graph node of mod::name in `mods`: its program-wide subprogram
/// ordinal (ProcRef::node).
int node_of(const std::vector<const lang::Module*>& mods,
            const std::string& mod, const std::string& name) {
  int n = 0;
  for (const lang::Module* m : mods) {
    for (const lang::Subprogram& sp : m->subprograms) {
      if (m->name == mod && sp.name == name) return n;
      ++n;
    }
  }
  return -1;
}

/// Owns the parsed file so Module pointers stay valid for the test body.
struct Parsed {
  lang::SourceFile file;
  explicit Parsed(const std::string& src)
      : file(lang::Parser("<test>", src).parse_file()) {}
  std::vector<const lang::Module*> modules() const {
    std::vector<const lang::Module*> out;
    for (const auto& m : file.modules) out.push_back(&m);
    return out;
  }
  const lang::Subprogram& sub(const std::string& mod,
                              const std::string& name) const {
    for (const auto& m : file.modules) {
      if (m.name != mod) continue;
      const lang::Subprogram* sp = m.find_subprogram(name);
      if (sp != nullptr) return *sp;
    }
    throw std::runtime_error("no such subprogram " + mod + "::" + name);
  }
};

std::vector<Diagnostic> run_rules(const Parsed& p, bool interprocedural) {
  const auto mods = p.modules();
  return (interprocedural ? PassManager::default_passes()
                          : PassManager::intraprocedural_passes())
      .run(mods)
      .diagnostics();
}

std::vector<Diagnostic> by_rule(const std::vector<Diagnostic>& diags,
                                const std::string& rule) {
  std::vector<Diagnostic> out;
  for (const auto& d : diags) {
    if (d.rule == rule) out.push_back(d);
  }
  return out;
}

const ProcSummary& summary_of(const ProgramSummaries& s, const Parsed& p,
                              const std::string& mod, const std::string& name) {
  const int n = node_of(p.modules(), mod, name);
  EXPECT_GE(n, 0) << mod << "::" << name;
  return s.proc(static_cast<std::size_t>(n));
}

// ---------------------------------------------------------------------------
// Call graph

constexpr const char* kChainSrc = R"(module bottom
contains
  subroutine leaf(x)
    real, intent(out) :: x
    x = 1.0
  end subroutine leaf
end module bottom
module middle
  use bottom
contains
  subroutine relay(y)
    real, intent(out) :: y
    call leaf(y)
  end subroutine relay
end module middle
module top
  use middle
contains
  subroutine drive(z)
    real, intent(out) :: z
    call relay(z)
  end subroutine drive
end module top
)";

TEST(CallGraph, EdgesResolveAndSccIdsAreReverseTopological) {
  Parsed p(kChainSrc);
  const auto mods = p.modules();
  const ProgramSymbols symbols(mods);
  const CallGraph cg = build_call_graph(mods, symbols);
  ASSERT_EQ(cg.size(), 3u);

  const int leaf = node_of(mods, "bottom", "leaf");
  const int relay = node_of(mods, "middle", "relay");
  const int drive = node_of(mods, "top", "drive");
  ASSERT_GE(leaf, 0);
  ASSERT_GE(relay, 0);
  ASSERT_GE(drive, 0);

  EXPECT_EQ(cg.callees[static_cast<std::size_t>(drive)],
            std::vector<std::size_t>{static_cast<std::size_t>(relay)});
  EXPECT_EQ(cg.callees[static_cast<std::size_t>(relay)],
            std::vector<std::size_t>{static_cast<std::size_t>(leaf)});
  EXPECT_TRUE(cg.callees[static_cast<std::size_t>(leaf)].empty());
  EXPECT_EQ(cg.callers[static_cast<std::size_t>(leaf)],
            std::vector<std::size_t>{static_cast<std::size_t>(relay)});

  // Reverse topological component ids: callee SCC strictly below caller SCC.
  EXPECT_LT(cg.scc_of[static_cast<std::size_t>(leaf)],
            cg.scc_of[static_cast<std::size_t>(relay)]);
  EXPECT_LT(cg.scc_of[static_cast<std::size_t>(relay)],
            cg.scc_of[static_cast<std::size_t>(drive)]);
  EXPECT_EQ(cg.scc_count, 3u);
  for (std::size_t c = 0; c < cg.scc_count; ++c) {
    EXPECT_FALSE(cg.scc_recursive[c]);
  }
  for (std::size_t n = 0; n < cg.size(); ++n) {
    EXPECT_FALSE(cg.has_unknown_call[n]);
  }
}

TEST(CallGraph, MutualRecursionFormsOneRecursiveScc) {
  Parsed p(R"(module m
contains
  subroutine ping(n)
    integer :: n
    if (n > 0) then
      call pong(n - 1)
    end if
  end subroutine ping
  subroutine pong(n)
    integer :: n
    call ping(n)
  end subroutine pong
end module m
)");
  const auto mods = p.modules();
  const ProgramSymbols symbols(mods);
  const CallGraph cg = build_call_graph(mods, symbols);
  const int ping = node_of(mods, "m", "ping");
  const int pong = node_of(mods, "m", "pong");
  ASSERT_GE(ping, 0);
  ASSERT_GE(pong, 0);
  EXPECT_EQ(cg.scc_of[static_cast<std::size_t>(ping)],
            cg.scc_of[static_cast<std::size_t>(pong)]);
  EXPECT_TRUE(cg.scc_recursive[cg.scc_of[static_cast<std::size_t>(ping)]]);
}

TEST(CallGraph, UnresolvedCallSetsUnknownFlag) {
  Parsed p(R"(module m
contains
  subroutine s(x)
    real, intent(inout) :: x
    call mystery(x)
  end subroutine s
end module m
)");
  const auto mods = p.modules();
  const ProgramSymbols symbols(mods);
  const CallGraph cg = build_call_graph(mods, symbols);
  const int s = node_of(mods, "m", "s");
  ASSERT_GE(s, 0);
  EXPECT_TRUE(cg.has_unknown_call[static_cast<std::size_t>(s)]);
}

// ---------------------------------------------------------------------------
// Summaries

TEST(Summaries, ClassifiesDummiesGlobalsAndPurity) {
  Parsed p(R"(module state
  real :: acc
contains
  subroutine mix(a, b, c)
    real, intent(in) :: a
    real, intent(out) :: b
    real :: c
    b = a * 2.0
    acc = acc + b
  end subroutine mix
  function double(x) result(d)
    real, intent(in) :: x
    real :: d
    d = 2.0 * x
  end function double
end module state
)");
  const auto mods = p.modules();
  const ProgramSymbols symbols(mods);
  const ProgramSummaries s = compute_summaries(mods, symbols);

  const ProcSummary& mix = summary_of(s, p, "state", "mix");
  ASSERT_EQ(mix.dummies.size(), 3u);
  // a: read on every path, never written.
  EXPECT_TRUE(mix.dummies[0].may_read_incoming);
  EXPECT_TRUE(mix.dummies[0].observes_incoming);
  EXPECT_FALSE(mix.dummies[0].may_write);
  EXPECT_FALSE(mix.dummies[0].definitely_writes);
  // b: definitely written before any read.
  EXPECT_FALSE(mix.dummies[1].may_read_incoming);
  EXPECT_FALSE(mix.dummies[1].observes_incoming);
  EXPECT_TRUE(mix.dummies[1].may_write);
  EXPECT_TRUE(mix.dummies[1].definitely_writes);
  // c: untouched.
  EXPECT_FALSE(mix.dummies[2].may_read_incoming);
  EXPECT_FALSE(mix.dummies[2].may_write);
  // Globals: acc is read and written; purity is lost on the write.
  EXPECT_EQ(mix.globals_read, std::vector<std::string>{"state::acc"});
  EXPECT_EQ(mix.globals_written, std::vector<std::string>{"state::acc"});
  EXPECT_FALSE(mix.pure);

  const ProcSummary& dbl = summary_of(s, p, "state", "double");
  EXPECT_TRUE(dbl.is_function);
  EXPECT_TRUE(dbl.returns_real);
  EXPECT_TRUE(dbl.pure);
  EXPECT_TRUE(dbl.globals_written.empty());
}

TEST(Summaries, EffectsPropagateTransitivelyThroughWrappers) {
  Parsed p(kChainSrc);
  const auto mods = p.modules();
  const ProgramSymbols symbols(mods);
  const ProgramSummaries s = compute_summaries(mods, symbols);
  // relay's dummy is definitely written because leaf definitely writes its
  // dummy; same one more level up.
  for (const char* name : {"relay", "drive"}) {
    const ProcSummary& ps = summary_of(
        s, p, name == std::string("relay") ? "middle" : "top", name);
    ASSERT_EQ(ps.dummies.size(), 1u);
    EXPECT_TRUE(ps.dummies[0].definitely_writes) << name;
    EXPECT_FALSE(ps.dummies[0].may_read_incoming) << name;
  }
}

TEST(Summaries, RecursiveSccIsMarkedAndConsumersFallBack) {
  Parsed p(R"(module rec
contains
  subroutine spin(n)
    integer :: n
    if (n > 0) then
      call spin(n - 1)
    end if
  end subroutine spin
  subroutine user(k)
    integer :: k
    call spin(k)
  end subroutine user
end module rec
)");
  const auto mods = p.modules();
  const ProgramSymbols symbols(mods);
  const ProgramSummaries s = compute_summaries(mods, symbols);
  EXPECT_TRUE(summary_of(s, p, "rec", "spin").recursive);
  // A caller of a recursive procedure cannot bound its effects.
  EXPECT_TRUE(summary_of(s, p, "rec", "user").calls_unknown);
  const CallEffectFn effects = make_call_effects(symbols, s, "rec");
  ASSERT_TRUE(effects);
  EXPECT_FALSE(effects("spin", 1, false).has_value());
}

TEST(Summaries, JsonDumpIsDeterministic) {
  Parsed p(kChainSrc);
  const auto mods = p.modules();
  const ProgramSymbols symbols(mods);
  const std::string a = summaries_to_json(compute_summaries(mods, symbols));
  const std::string b = summaries_to_json(compute_summaries(mods, symbols));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\":\"rca.summaries.v1\""), std::string::npos);
  EXPECT_NE(a.find("\"definitely_writes\":true"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Summary-consulting dataflow: sharpened rules

// A callee that never touches its dummy. Intraprocedurally the call is a
// blanket may-def, which silences the use-before-def below and keeps the
// dead store above alive.
constexpr const char* kNoopCalleeSrc = R"(module helpers
contains
  subroutine noop(a)
    real :: a
  end subroutine noop
end module helpers
module caller
  use helpers
contains
  subroutine reads_unset(y)
    real, intent(out) :: y
    real :: t
    call noop(t)
    y = t
  end subroutine reads_unset
  subroutine stores_dead(y)
    real, intent(out) :: y
    real :: u
    u = 5.0
    call noop(u)
    y = 1.0
  end subroutine stores_dead
end module caller
)";

TEST(InterprocLint, RevealsUseBeforeDefSilencedByBlanketMayDef) {
  Parsed p(kNoopCalleeSrc);
  const auto intra = by_rule(run_rules(p, false), "use-before-def");
  EXPECT_TRUE(intra.empty());
  const auto inter = by_rule(run_rules(p, true), "use-before-def");
  ASSERT_EQ(inter.size(), 1u);
  EXPECT_EQ(inter[0].name, "t");
  EXPECT_EQ(inter[0].subprogram, "reads_unset");
  // Summary-derived findings are capped at warning: the interprocedural mode
  // must never introduce a new error.
  EXPECT_EQ(inter[0].severity, Severity::kWarning);
}

TEST(InterprocLint, ReportsDeadStoreWhoseOnlyUseFeedsANeverReadDummy) {
  Parsed p(kNoopCalleeSrc);
  auto has_u = [](const std::vector<Diagnostic>& ds) {
    return std::any_of(ds.begin(), ds.end(), [](const Diagnostic& d) {
      return d.name == "u" && d.subprogram == "stores_dead";
    });
  };
  EXPECT_FALSE(has_u(by_rule(run_rules(p, false), "dead-store")));
  EXPECT_TRUE(has_u(by_rule(run_rules(p, true), "dead-store")));
}

TEST(InterprocLint, SummaryFindingsNeverEscalateExistingSeverities) {
  // ⊆-or-better contract on severities: every intraprocedural error is still
  // an error interprocedurally (same rule, same site).
  Parsed p(kNoopCalleeSrc);
  const auto intra = run_rules(p, false);
  const auto inter = run_rules(p, true);
  for (const Diagnostic& d : intra) {
    if (d.severity != Severity::kError) continue;
    const bool kept = std::any_of(
        inter.begin(), inter.end(), [&d](const Diagnostic& e) {
          return e.rule == d.rule && e.module == d.module &&
                 e.line == d.line && e.severity == Severity::kError;
        });
    EXPECT_TRUE(kept) << d.rule << " at line " << d.line;
  }
}

TEST(InterprocLint, IntentViolationThroughTheCallChainIsAWarning) {
  Parsed p(R"(module sinks
contains
  subroutine setit(o)
    real, intent(out) :: o
    o = 1.0
  end subroutine setit
end module sinks
module callers
  use sinks
contains
  subroutine passes_intent_in(x, y)
    real, intent(in) :: x
    real, intent(out) :: y
    call setit(x)
    y = x
  end subroutine passes_intent_in
end module callers
)");
  const auto intra = by_rule(run_rules(p, false), "intent-violation");
  EXPECT_TRUE(intra.empty());
  const auto inter = by_rule(run_rules(p, true), "intent-violation");
  ASSERT_EQ(inter.size(), 1u);
  EXPECT_EQ(inter[0].severity, Severity::kWarning);
  EXPECT_EQ(inter[0].name, "x");
  EXPECT_NE(inter[0].message.find("passed to a procedure that assigns it"),
            std::string::npos);
}

TEST(InterprocLint, UnusedDummyIsReported) {
  Parsed p(R"(module m
contains
  subroutine s(used, spare)
    real, intent(out) :: used
    real :: spare
    used = 1.0
  end subroutine s
end module m
)");
  const auto found = by_rule(run_rules(p, true), "unused-dummy");
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].name, "spare");
  EXPECT_EQ(found[0].severity, Severity::kWarning);
  EXPECT_TRUE(by_rule(run_rules(p, false), "unused-dummy").empty());
}

TEST(InterprocLint, WriteToReadOnlyGlobalDirectAndViaCallee) {
  Parsed p(R"(module consts
  real, parameter :: gravity = 9.81
contains
  subroutine clobber()
    gravity = 1.0
  end subroutine clobber
end module consts
module sinks
contains
  subroutine setit(o)
    real, intent(out) :: o
    o = 0.0
  end subroutine setit
end module sinks
module passer
  use consts
  use sinks
contains
  subroutine hand_off()
    call setit(gravity)
  end subroutine hand_off
end module passer
)");
  const auto found = by_rule(run_rules(p, true), "write-to-read-only-global");
  ASSERT_EQ(found.size(), 2u);
  // Sorted by module: consts (direct, error) then passer (via call, warning).
  EXPECT_EQ(found[0].module, "consts");
  EXPECT_EQ(found[0].severity, Severity::kError);
  EXPECT_EQ(found[1].module, "passer");
  EXPECT_EQ(found[1].severity, Severity::kWarning);
}

// ---------------------------------------------------------------------------
// FP sensitivity

TEST(FpSense, FlagsContractionAndReassociationOnFpExpressionsOnly) {
  Parsed p(R"(module fp
  real :: a, b, c, d
  integer :: i, j, k, l
contains
  subroutine s(r, n)
    real, intent(out) :: r
    integer, intent(out) :: n
    r = a * b + c
    r = a + b + c + d
    n = i + j + k + l
  end subroutine s
end module fp
)");
  const auto mods = p.modules();
  const ProgramSymbols symbols(mods);
  const auto sites = find_fp_sites(p.sub("fp", "s"),
                                   symbols.module("fp"), FpCallOracle());
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0].kind, FpSite::Kind::kContraction);
  EXPECT_EQ(sites[0].target, "r");
  EXPECT_EQ(sites[1].kind, FpSite::Kind::kReassociation);
  // The integer chain contributes nothing.
}

TEST(FpSense, LintRuleAndReportAgreeAndReportIsDeterministic) {
  Parsed p(R"(module fp2
contains
  function scale(x) result(sx)
    real, intent(in) :: x
    real :: sx
    sx = 2.0 * x + 1.0
  end function scale
  subroutine use_scale(y)
    real, intent(out) :: y
    y = scale(3.0) + scale(4.0) + scale(5.0)
  end subroutine use_scale
end module fp2
)");
  const auto notes = by_rule(run_rules(p, true), "fp-sensitivity");
  // scale: contraction; use_scale: reassociation over FP-returning calls
  // (known through the summaries' returns_real).
  ASSERT_EQ(notes.size(), 2u);
  for (const auto& n : notes) EXPECT_EQ(n.severity, Severity::kNote);

  const auto mods = p.modules();
  const ProgramSymbols symbols(mods);
  const ProgramSummaries s = compute_summaries(mods, symbols);
  const std::string r1 = fpsense_report_json(mods, symbols, s);
  EXPECT_EQ(r1, fpsense_report_json(mods, symbols, s));
  EXPECT_NE(r1.find("\"schema\":\"rca.fpsense.v1\""), std::string::npos);
  EXPECT_NE(r1.find("\"kind\":\"reassociation\""), std::string::npos);
  EXPECT_NE(r1.find("\"fp_sensitive_procedures\""), std::string::npos);
}

// A +/- chain and its left sub-chain start at the same position, and in
// `a + b * c + d * e` both have the contraction shape: one site is reported
// there (the outermost), so the lint report never repeats a record.
TEST(FpSense, OneSitePerPositionKindAndTarget) {
  Parsed p(R"(module fp3
  real :: a, b, c, d, e
contains
  subroutine s(r)
    real, intent(out) :: r
    r = a + b * c + d * e
  end subroutine s
end module fp3
)");
  const auto mods = p.modules();
  const ProgramSymbols symbols(mods);
  const auto sites = find_fp_sites(p.sub("fp3", "s"),
                                   symbols.module("fp3"), FpCallOracle());
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0].kind, FpSite::Kind::kContraction);
  EXPECT_EQ(lang::print_expr(*sites[0].expr), "a + b * c + d * e");
  EXPECT_EQ(sites[1].kind, FpSite::Kind::kReassociation);
  EXPECT_EQ(by_rule(run_rules(p, true), "fp-sensitivity").size(), 2u);
}

// The lint report of the default generated corpus, every module linted (as
// `rca-tool lint --src DIR` without a build list), holds no record twice in
// a row.
TEST(FpSense, DefaultCorpusLintReportRepeatsNoRecord) {
  model::GeneratedCorpus corpus = model::generate_corpus(model::CorpusSpec{});
  std::sort(corpus.files.begin(), corpus.files.end(),
            [](const model::GeneratedFile& a, const model::GeneratedFile& b) {
              return a.path < b.path;
            });
  std::vector<lang::SourceFile> files;
  for (const model::GeneratedFile& f : corpus.files) {
    files.push_back(lang::Parser(f.path, f.text).parse_file());
  }
  std::vector<const lang::Module*> mods;
  for (const lang::SourceFile& f : files) {
    for (const lang::Module& m : f.modules) mods.push_back(&m);
  }
  const std::vector<Diagnostic> diags =
      PassManager::default_passes().run(mods).diagnostics();
  ASSERT_FALSE(by_rule(diags, "fp-sensitivity").empty());
  const std::string tsv = diagnostics_to_tsv(diags);
  std::size_t records = 0;
  std::string previous;
  for (std::size_t begin = 0; begin < tsv.size();) {
    const std::size_t end = tsv.find('\n', begin);
    const std::string record = tsv.substr(begin, end - begin);
    EXPECT_NE(record, previous);
    previous = record;
    ++records;
    begin = end == std::string::npos ? tsv.size() : end + 1;
  }
  EXPECT_GT(records, 1000u);
}

// ---------------------------------------------------------------------------
// One-level re-export resolution (ProgramSymbols / builder parity)

TEST(Symbols, OneLevelReExportResolvesRegardlessOfModuleOrder) {
  const char* fwd = R"(module origin
contains
  subroutine act(x)
    real, intent(out) :: x
    x = 1.0
  end subroutine act
end module origin
module hub
  use origin
end module hub
module client
  use hub
contains
  subroutine go(y)
    real, intent(out) :: y
    call act(y)
  end subroutine go
end module client
)";
  Parsed p(fwd);
  auto check = [&p](const std::vector<const lang::Module*>& mods) {
    const ProgramSymbols symbols(mods);
    const CallGraph cg = build_call_graph(mods, symbols);
    const int go = node_of(mods, "client", "go");
    ASSERT_GE(go, 0);
    EXPECT_FALSE(cg.has_unknown_call[static_cast<std::size_t>(go)])
        << "re-exported `act` must resolve through hub";
    ASSERT_EQ(cg.callees[static_cast<std::size_t>(go)].size(), 1u);
  };
  auto mods = p.modules();
  check(mods);
  std::reverse(mods.begin(), mods.end());
  check(mods);
}

// ---------------------------------------------------------------------------
// Summary-informed metagraph pruning

TEST(SummaryPruning, DropsStoresFeedingNeverReadDummies) {
  Parsed p(kNoopCalleeSrc);
  const auto mods = p.modules();
  meta::BuilderOptions plain;
  plain.prune_dead_stores = true;
  const meta::Metagraph pruned = meta::build_metagraph(mods, plain);
  meta::BuilderOptions informed = plain;
  informed.summary_informed_pruning = true;
  const meta::Metagraph sharper = meta::build_metagraph(mods, informed);
  EXPECT_GT(sharper.dead_stores_pruned, pruned.dead_stores_pruned);
  EXPECT_LE(sharper.node_count(), pruned.node_count());
}

TEST(SummaryPruning, NoOpWhenSummariesAddNothing) {
  // Straight-line corpus with no dead stores: the summary-informed build
  // must be byte-identical to the plain pruned build.
  Parsed p(kChainSrc);
  const auto mods = p.modules();
  meta::BuilderOptions plain;
  plain.prune_dead_stores = true;
  meta::BuilderOptions informed = plain;
  informed.summary_informed_pruning = true;
  EXPECT_EQ(meta::save_metagraph_to_string(meta::build_metagraph(mods, informed)),
            meta::save_metagraph_to_string(meta::build_metagraph(mods, plain)));
}

TEST(SummaryPruning, ImpureModuleFilterAdmitsStateOwnersOnly)
{
  Parsed p(R"(module purelib
contains
  function twice(x) result(t)
    real, intent(in) :: x
    real :: t
    t = 2.0 * x
  end function twice
end module purelib
module stateful
  real :: level
contains
  subroutine bump()
    level = level + 1.0
  end subroutine bump
end module stateful
module datamod
  real :: table(4)
end module datamod
)");
  const auto mods = p.modules();
  const ProgramSymbols symbols(mods);
  const ProgramSummaries s = compute_summaries(mods, symbols);
  const auto filter = slice::impure_module_filter(s);
  EXPECT_FALSE(filter("purelib"));      // every procedure pure
  EXPECT_TRUE(filter("stateful"));      // writes module state
  EXPECT_TRUE(filter("datamod"));       // declaration-only: owns the state
  EXPECT_TRUE(filter("not_in_corpus"));  // unknown: conservative
}

// ---------------------------------------------------------------------------
// Incremental invalidation: SCC reverse-caller cone

TEST(Incremental, SummaryConeIsReflexiveReverseCallerClosure) {
  Parsed p(kChainSrc);
  const auto mods = p.modules();
  const ProgramSymbols symbols(mods);
  const CallGraph cg = build_call_graph(mods, symbols);
  // Modules in order: bottom, middle, top.
  EXPECT_EQ(summary_cone(cg, {true, false, false}),
            (std::vector<bool>{true, true, true}));
  EXPECT_EQ(summary_cone(cg, {false, true, false}),
            (std::vector<bool>{false, true, true}));
  EXPECT_EQ(summary_cone(cg, {false, false, true}),
            (std::vector<bool>{false, false, true}));
}

TEST(Incremental, BaselineReusesSummariesOutsideTheCone) {
  Parsed p(kChainSrc);
  const auto mods = p.modules();
  const ProgramSymbols symbols(mods);
  const ProgramSummaries full = compute_summaries(mods, symbols);
  EXPECT_EQ(full.procs_recomputed, 3u);

  const std::vector<bool> dirty{false, true, false};  // middle
  const ProgramSummaries incr =
      compute_summaries(mods, symbols, full.cg, &full, &dirty);
  // bottom is outside the cone of {middle}: reused. middle + top recomputed.
  EXPECT_EQ(incr.procs_reused, 1u);
  EXPECT_EQ(incr.procs_recomputed, 2u);
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_TRUE(full.proc(i) == incr.proc(i)) << full.proc(i).name;
  }
  // The reused module shares the base's run; the recomputed ones are fresh.
  EXPECT_EQ(incr.modules[0], full.modules[0]);
  EXPECT_NE(incr.modules[1], full.modules[1]);
  EXPECT_NE(incr.modules[2], full.modules[2]);
}

TEST(Incremental, BodyPatchWidensDirtySetToCallerConeAndMatchesFullRun) {
  // v1: leaf definitely writes its dummy. v2 (body-only patch, interface
  // signatures unchanged): leaf no longer writes — every caller up the chain
  // now has a use-before-def. A dirty set of just {bottom} must still
  // produce the same diagnostics as a full relint.
  const char* v2 = R"(module bottom
contains
  subroutine leaf(x)
    real, intent(out) :: x
  end subroutine leaf
end module bottom
module middle
  use bottom
contains
  subroutine relay(y)
    real, intent(out) :: y
    call leaf(y)
  end subroutine relay
end module middle
module top
  use middle
contains
  subroutine drive(z)
    real, intent(out) :: z
    call relay(z)
    z = z + 0.0
  end subroutine drive
end module top
)";
  Parsed p2(v2);
  const PassManager pm = PassManager::default_passes();
  // The base generation's ASTs are gone by the time it seeds the relint, as
  // after a patch that evicted the base session: only its plain-data
  // summaries may be read.
  const AnalysisResult before = [&] {
    Parsed p1(kChainSrc);
    return pm.run(p1.modules());
  }();

  const auto mods2 = p2.modules();
  std::vector<bool> dirty(mods2.size(), false);
  dirty[0] = true;  // bottom only — the edited module
  obs::Registry& reg = obs::global();
  reg.set_enabled(true);
  const AnalysisResult incr =
      pm.run(mods2, ProgramSymbols(mods2), before, dirty);
  const double widened = reg.counter("lint.summary.cone_widened");
  reg.set_enabled(false);

  // The cone widened the recompute set to middle and top...
  EXPECT_EQ(widened, 2.0);
  ASSERT_EQ(incr.analyzed.size(), 3u);
  EXPECT_TRUE(incr.analyzed[0]);
  EXPECT_TRUE(incr.analyzed[1]);
  EXPECT_TRUE(incr.analyzed[2]);
  // ...and the diagnostics equal a from-scratch interprocedural run.
  const AnalysisResult full = pm.run(mods2);
  EXPECT_EQ(diagnostics_to_tsv(incr.diagnostics()),
            diagnostics_to_tsv(full.diagnostics()));
  EXPECT_EQ(incr.report(), full.report());
}

}  // namespace
}  // namespace rca::analysis
