#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>

#include "interp/interpreter.hpp"
#include "interp/program.hpp"
#include "lang/parser.hpp"
#include "support/rng.hpp"

namespace rca::interp {
namespace {

/// Test fixture owning parsed source files (module ASTs must outlive the
/// interpreter).
class InterpTest : public ::testing::Test {
 protected:
  Interpreter& load(const std::string& source) {
    files_.push_back(std::make_unique<lang::SourceFile>(
        lang::Parser("<test>", source).parse_file()));
    std::vector<const lang::Module*> mods;
    for (const auto& f : files_) {
      for (const auto& m : f->modules) mods.push_back(&m);
    }
    interp_ = std::make_unique<Interpreter>(std::move(mods));
    return *interp_;
  }

  std::vector<std::unique_ptr<lang::SourceFile>> files_;
  std::unique_ptr<Interpreter> interp_;
};

TEST_F(InterpTest, ScalarAssignmentAndArithmetic) {
  auto& in = load(R"(
module m
  real :: x
contains
  subroutine go()
    x = 2.0 * 3.0 + 4.0 / 2.0 - 1.0
  end subroutine
end module
)");
  in.call("m", "go");
  EXPECT_DOUBLE_EQ(in.module_var("m", "x")->as_real(), 7.0);
}

TEST_F(InterpTest, IntegerDivisionTruncates) {
  auto& in = load(R"(
module m
  integer :: k
contains
  subroutine go()
    k = 7 / 2
  end subroutine
end module
)");
  in.call("m", "go");
  EXPECT_EQ(in.module_var("m", "k")->as_int(), 3);
}

TEST_F(InterpTest, DoLoopAndArrayIndexing) {
  auto& in = load(R"(
module m
  integer, parameter :: n = 5
  real :: a(n)
  real :: total
contains
  subroutine go()
    integer :: i
    do i = 1, n
      a(i) = real(i) * 2.0
    end do
    total = sum(a)
  end subroutine
end module
)");
  in.call("m", "go");
  EXPECT_DOUBLE_EQ(in.module_var("m", "total")->as_real(), 30.0);
  EXPECT_DOUBLE_EQ(in.module_var("m", "a")->array[2], 6.0);
}

TEST_F(InterpTest, WholeArrayExpressions) {
  auto& in = load(R"(
module m
  real :: a(4), b(4), c(4)
contains
  subroutine go()
    a = 2.0
    b = 3.0
    c = a * b + 1.0
  end subroutine
end module
)");
  in.call("m", "go");
  for (double v : in.module_var("m", "c")->array) EXPECT_DOUBLE_EQ(v, 7.0);
}

TEST_F(InterpTest, IfElseChain) {
  auto& in = load(R"(
module m
  real :: r
contains
  subroutine classify(x)
    real :: x
    if (x > 10.0) then
      r = 3.0
    else if (x > 5.0) then
      r = 2.0
    else
      r = 1.0
    end if
  end subroutine
end module
)");
  in.call("m", "classify", {Value::make_real(20.0)});
  EXPECT_DOUBLE_EQ(in.module_var("m", "r")->as_real(), 3.0);
  in.call("m", "classify", {Value::make_real(7.0)});
  EXPECT_DOUBLE_EQ(in.module_var("m", "r")->as_real(), 2.0);
  in.call("m", "classify", {Value::make_real(1.0)});
  EXPECT_DOUBLE_EQ(in.module_var("m", "r")->as_real(), 1.0);
}

TEST_F(InterpTest, FunctionCallWithResultClause) {
  auto& in = load(R"(
module m
  real :: out
contains
  function square(x) result(y)
    real :: x, y
    y = x * x
  end function
  subroutine go()
    out = square(3.0) + square(4.0)
  end subroutine
end module
)");
  in.call("m", "go");
  EXPECT_DOUBLE_EQ(in.module_var("m", "out")->as_real(), 25.0);
}

TEST_F(InterpTest, SubroutineArgumentAliasing) {
  auto& in = load(R"(
module m
  real :: x
contains
  subroutine bump(v)
    real, intent(inout) :: v
    v = v + 1.0
  end subroutine
  subroutine go()
    x = 10.0
    call bump(x)
    call bump(x)
  end subroutine
end module
)");
  in.call("m", "go");
  EXPECT_DOUBLE_EQ(in.module_var("m", "x")->as_real(), 12.0);
}

TEST_F(InterpTest, ArrayElementCopyInCopyOut) {
  auto& in = load(R"(
module m
  real :: a(3)
contains
  subroutine setone(v)
    real, intent(out) :: v
    v = 99.0
  end subroutine
  subroutine go()
    a = 0.0
    call setone(a(2))
  end subroutine
end module
)");
  in.call("m", "go");
  EXPECT_DOUBLE_EQ(in.module_var("m", "a")->array[1], 99.0);
  EXPECT_DOUBLE_EQ(in.module_var("m", "a")->array[0], 0.0);
}

TEST_F(InterpTest, DerivedTypesAliasThroughCalls) {
  auto& in = load(R"(
module m
  type state_t
    real :: omega(4)
    real :: t
  end type
  type(state_t) :: state
contains
  subroutine set_omega(s)
    type(state_t) :: s
    s%omega = 5.0
    s%t = 300.0
  end subroutine
  subroutine go()
    call set_omega(state)
    state%omega(2) = 7.0
  end subroutine
end module
)");
  in.call("m", "go");
  auto state = in.module_var("m", "state");
  EXPECT_DOUBLE_EQ(state->derived->components["omega"]->array[0], 5.0);
  EXPECT_DOUBLE_EQ(state->derived->components["omega"]->array[1], 7.0);
  EXPECT_DOUBLE_EQ(state->derived->components["t"]->as_real(), 300.0);
}

TEST_F(InterpTest, UseRenameResolvesRemoteSymbols) {
  auto& in = load(R"(
module shr_kind
  integer, parameter :: shr_kind_r8 = 8
  real :: shared_field
contains
  function double_it(x) result(y)
    real :: x, y
    y = 2.0 * x
  end function
end module
module client
  use shr_kind, only: r8 => shr_kind_r8, shared_field, twice => double_it
  real :: out
contains
  subroutine go()
    shared_field = 21.0
    out = twice(shared_field) + real(r8)
  end subroutine
end module
)");
  in.call("client", "go");
  EXPECT_DOUBLE_EQ(in.module_var("client", "out")->as_real(), 50.0);
  EXPECT_DOUBLE_EQ(in.module_var("shr_kind", "shared_field")->as_real(), 21.0);
}

TEST_F(InterpTest, ImportAllWithoutOnlyList) {
  auto& in = load(R"(
module provider
  real :: field
contains
  subroutine fill()
    field = 4.0
  end subroutine
end module
module client
  use provider
  real :: got
contains
  subroutine go()
    call fill()
    got = field
  end subroutine
end module
)");
  in.call("client", "go");
  EXPECT_DOUBLE_EQ(in.module_var("client", "got")->as_real(), 4.0);
}

TEST_F(InterpTest, InterfaceDispatchByArity) {
  auto& in = load(R"(
module m
  real :: out
  interface combine
    module procedure combine2, combine3
  end interface
contains
  function combine2(a, b) result(r)
    real :: a, b, r
    r = a + b
  end function
  function combine3(a, b, c) result(r)
    real :: a, b, c, r
    r = a + b + c
  end function
  subroutine go()
    out = combine(1.0, 2.0) + combine(1.0, 2.0, 3.0)
  end subroutine
end module
)");
  in.call("m", "go");
  EXPECT_DOUBLE_EQ(in.module_var("m", "out")->as_real(), 9.0);
}

TEST_F(InterpTest, IntrinsicsEvaluate) {
  auto& in = load(R"(
module m
  real :: r1, r2, r3, r4, r5
  integer :: k1
contains
  subroutine go()
    real :: a(3)
    a(1) = 3.0
    a(2) = -1.0
    a(3) = 2.0
    r1 = max(1.0, 5.0, 2.0)
    r2 = abs(-4.5)
    r3 = minval(a)
    r4 = sqrt(16.0)
    r5 = mod(7.5, 2.0)
    k1 = size(a)
  end subroutine
end module
)");
  in.call("m", "go");
  EXPECT_DOUBLE_EQ(in.module_var("m", "r1")->as_real(), 5.0);
  EXPECT_DOUBLE_EQ(in.module_var("m", "r2")->as_real(), 4.5);
  EXPECT_DOUBLE_EQ(in.module_var("m", "r3")->as_real(), -1.0);
  EXPECT_DOUBLE_EQ(in.module_var("m", "r4")->as_real(), 4.0);
  EXPECT_DOUBLE_EQ(in.module_var("m", "r5")->as_real(), 1.5);
  EXPECT_EQ(in.module_var("m", "k1")->as_int(), 3);
}

TEST_F(InterpTest, ExitAndCycleInsideNestedIf) {
  auto& in = load(R"(
module m
  real :: total
contains
  subroutine go()
    integer :: i
    total = 0.0
    do i = 1, 100
      if (i == 3) then
        cycle
      end if
      if (i > 5) then
        exit
      end if
      total = total + real(i)
    end do
  end subroutine
end module
)");
  in.call("m", "go");
  // 1 + 2 + 4 + 5 = 12 (3 skipped, loop exits at 6).
  EXPECT_DOUBLE_EQ(in.module_var("m", "total")->as_real(), 12.0);
}

TEST_F(InterpTest, FmaModeChangesRounding) {
  const char* src = R"(
module m
  real :: r
contains
  subroutine go(a, b, c)
    real :: a, b, c
    r = a * b + c
  end subroutine
end module
)";
  // Choose operands where fused and unfused rounding differ.
  const double a = 1.0 + std::ldexp(1.0, -30);
  const double b = 1.0 - std::ldexp(1.0, -30);
  const double c = -1.0;
  auto& in = load(src);
  in.call("m", "go",
          {Value::make_real(a), Value::make_real(b), Value::make_real(c)});
  const double unfused = in.module_var("m", "r")->as_real();
  in.set_fma("m", true);
  in.call("m", "go",
          {Value::make_real(a), Value::make_real(b), Value::make_real(c)});
  const double fused = in.module_var("m", "r")->as_real();
  EXPECT_DOUBLE_EQ(fused, std::fma(a, b, c));
  EXPECT_DOUBLE_EQ(unfused, a * b + c);
  EXPECT_NE(fused, unfused);
}

TEST_F(InterpTest, WatchRecordsAssignments) {
  auto& in = load(R"(
module m
contains
  subroutine go()
    real :: dum
    integer :: i
    do i = 1, 4
      dum = real(i)
    end do
  end subroutine
end module
)");
  in.add_watch(WatchKey{"m", "go", "dum"});
  in.call("m", "go");
  const auto& stats = in.watch_stats();
  auto it = stats.find(WatchKey{"m", "go", "dum"});
  ASSERT_NE(it, stats.end());
  EXPECT_EQ(it->second.count, 4u);
  EXPECT_DOUBLE_EQ(it->second.last, 4.0);
  EXPECT_DOUBLE_EQ(it->second.mean(), 2.5);
  EXPECT_DOUBLE_EQ(it->second.rms(), std::sqrt(30.0 / 4.0));
}

TEST_F(InterpTest, TakenWatchStatsStopRecording) {
  auto& in = load(R"(
module m
contains
  subroutine go()
    real :: dum
    dum = 2.0
  end subroutine
end module
)");
  in.add_watch(WatchKey{"m", "go", "dum"});
  in.call("m", "go");
  const auto taken = in.take_watch_stats();
  EXPECT_TRUE(in.watch_stats().empty());
  in.call("m", "go");  // unwatched now; must not write into `taken`
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken.at(WatchKey{"m", "go", "dum"}).count, 1u);
}

TEST_F(InterpTest, WatchModuleVariableFromSubprogram) {
  auto& in = load(R"(
module m
  real :: field
contains
  subroutine go()
    field = 3.5
  end subroutine
end module
)");
  in.add_watch(WatchKey{"m", "", "field"});
  in.call("m", "go");
  auto it = in.watch_stats().find(WatchKey{"m", "", "field"});
  ASSERT_NE(it, in.watch_stats().end());
  EXPECT_EQ(it->second.count, 1u);
}

TEST_F(InterpTest, ModuleWatchAlsoRecordsSameNamedLocal) {
  // Assignments are keyed (module, subprogram, name); an unwatched local
  // falls back to the module-level key the metagraph uses for module
  // variables, so a watch on m::x also samples go's local x.
  auto& in = load(R"(
module m
  real :: x
contains
  subroutine go()
    real :: y
    x = 1.0
    call helper()
    y = 5.0
  end subroutine
  subroutine helper()
    real :: x
    x = 2.0
    x = 4.0
  end subroutine
end module
)");
  in.add_watch(WatchKey{"m", "", "x"});
  in.call("m", "go");
  auto it = in.watch_stats().find(WatchKey{"m", "", "x"});
  ASSERT_NE(it, in.watch_stats().end());
  EXPECT_EQ(it->second.count, 3u);
  EXPECT_DOUBLE_EQ(it->second.sum, 7.0);
}

TEST_F(InterpTest, DerivedComponentWatchKeyedAtAssignmentSite) {
  auto& in = load(R"(
module m
  type state_t
    real :: t(2)
  end type
  type(state_t) :: state
contains
  subroutine go()
    state%t(1) = 3.0
    state%t = 1.5
  end subroutine
end module
)");
  in.add_watch(WatchKey{"m", "go", "t"});
  in.add_watch(WatchKey{"m", "", "state"});
  in.call("m", "go");
  // The component is watched under the assigning subprogram's key...
  const auto& stats = in.watch_stats();
  EXPECT_EQ(stats.at(WatchKey{"m", "go", "t"}).count, 2u);
  EXPECT_DOUBLE_EQ(stats.at(WatchKey{"m", "go", "t"}).sum, 4.5);
  // ...not under the base variable.
  EXPECT_EQ(stats.at(WatchKey{"m", "", "state"}).count, 0u);
}

TEST_F(InterpTest, UnresolvedNameThrowsOnlyWhenExecuted) {
  auto& in = load(R"(
module m
  real :: r
contains
  subroutine dead()
    r = no_such_name + 1.0
    call no_such_routine(r)
  end subroutine
  subroutine go()
    r = 2.0
  end subroutine
end module
)");
  EXPECT_NO_THROW(in.call("m", "go"));
  EXPECT_DOUBLE_EQ(in.module_var("m", "r")->as_real(), 2.0);
  EXPECT_THROW(in.call("m", "dead"), EvalError);
}

TEST(ProgramConcurrency, EightThreadsMatchSerialRuns) {
  // One immutable Program shared by concurrent runs with different watch,
  // FMA and PRNG configurations must give exactly the serial results.
  const lang::SourceFile file = lang::Parser("<test>", R"(
module m
  real :: x(16)
  real :: acc
contains
  subroutine go()
    integer :: i
    real :: t
    call shr_rand_uniform(x)
    acc = 0.0
    do i = 1, 16
      t = x(i) * 1.0000001 + 0.3
      acc = acc * 0.999 + t * x(i) + 1.0e-3
    end do
  end subroutine
end module
)").parse_file();
  const Program program({&file.modules[0]});

  struct Outcome {
    double acc = 0.0;
    std::uint64_t watched = 0;
    double watched_sum = 0.0;
  };
  auto run = [&program](std::size_t k) {
    Interpreter in(program);
    if (k % 2) {
      in.set_prng(std::make_unique<Mt19937Rng>(k));
    } else {
      in.set_prng(std::make_unique<KissRng>(k + 1));
    }
    if (k % 3 == 0) in.set_fma_all(true);
    if (k % 4 < 2) in.add_watch(WatchKey{"m", "go", "t"});
    for (int rep = 0; rep < 50; ++rep) in.call("m", "go");
    Outcome out;
    out.acc = in.module_var("m", "acc")->as_real();
    auto it = in.watch_stats().find(WatchKey{"m", "go", "t"});
    if (it != in.watch_stats().end()) {
      out.watched = it->second.count;
      out.watched_sum = it->second.sum;
    }
    return out;
  };

  constexpr std::size_t kThreads = 8;
  std::vector<Outcome> serial(kThreads), parallel(kThreads);
  for (std::size_t k = 0; k < kThreads; ++k) serial[k] = run(k);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < kThreads; ++k) {
    threads.emplace_back([&parallel, &run, k] { parallel[k] = run(k); });
  }
  for (auto& t : threads) t.join();
  for (std::size_t k = 0; k < kThreads; ++k) {
    EXPECT_EQ(parallel[k].acc, serial[k].acc) << "run " << k;
    EXPECT_EQ(parallel[k].watched, serial[k].watched) << "run " << k;
    EXPECT_EQ(parallel[k].watched_sum, serial[k].watched_sum) << "run " << k;
  }
  EXPECT_EQ(serial[0].watched, 50u * 16u);
  EXPECT_NE(serial[0].acc, serial[1].acc);
}

TEST_F(InterpTest, CoverageRecordsExecutedSubprograms) {
  auto& in = load(R"(
module m
contains
  subroutine used()
    real :: x
    x = 1.0
  end subroutine
  subroutine unused()
    real :: x
    x = 2.0
  end subroutine
  subroutine go()
    call used()
  end subroutine
end module
)");
  in.call("m", "go");
  EXPECT_TRUE(in.coverage().subprogram_executed("m", "go"));
  EXPECT_TRUE(in.coverage().subprogram_executed("m", "used"));
  EXPECT_FALSE(in.coverage().subprogram_executed("m", "unused"));
  EXPECT_TRUE(in.coverage().module_executed("m"));
}

TEST_F(InterpTest, OutfldRecordsGlobalMeans) {
  auto& in = load(R"(
module m
contains
  subroutine go()
    real :: f(4)
    f = 2.0
    f(1) = 6.0
    call outfld('FLDS', f)
    call outfld('TREF', 300.0)
  end subroutine
end module
)");
  in.call("m", "go");
  ASSERT_EQ(in.outputs().size(), 2u);
  EXPECT_EQ(in.outputs()[0].first, "flds");
  EXPECT_DOUBLE_EQ(in.outputs()[0].second, 3.0);
  EXPECT_EQ(in.outputs()[1].first, "tref");
  EXPECT_DOUBLE_EQ(in.outputs()[1].second, 300.0);
}

TEST_F(InterpTest, PrngBuiltinAndSwap) {
  const char* src = R"(
module m
  real :: draws(8)
contains
  subroutine go()
    call shr_rand_uniform(draws)
  end subroutine
end module
)";
  auto& in = load(src);
  in.set_prng(std::make_unique<KissRng>(42));
  in.call("m", "go");
  std::vector<double> kiss_draws = in.module_var("m", "draws")->array;

  in.set_prng(std::make_unique<Mt19937Rng>(42));
  in.call("m", "go");
  std::vector<double> mt_draws = in.module_var("m", "draws")->array;

  KissRng reference(42);
  for (std::size_t i = 0; i < kiss_draws.size(); ++i) {
    EXPECT_DOUBLE_EQ(kiss_draws[i], reference.uniform());
  }
  EXPECT_NE(kiss_draws, mt_draws);
}

TEST_F(InterpTest, SliceAssignmentOn2D) {
  auto& in = load(R"(
module m
  real :: grid(3, 2)
  real :: col(3)
contains
  subroutine go()
    grid = 1.0
    grid(:, 2) = 5.0
    col = grid(:, 2)
  end subroutine
end module
)");
  in.call("m", "go");
  EXPECT_DOUBLE_EQ(in.module_var("m", "col")->array[0], 5.0);
  EXPECT_DOUBLE_EQ(in.module_var("m", "grid")->array[0], 1.0);  // (1,1)
}

TEST_F(InterpTest, RuntimeErrorsCarryLineInfo) {
  auto& in = load(R"(
module m
  real :: a(2)
contains
  subroutine go()
    a(5) = 1.0
  end subroutine
end module
)");
  EXPECT_THROW(in.call("m", "go"), EvalError);
}

TEST_F(InterpTest, UnknownCalleeThrows) {
  auto& in = load(R"(
module m
contains
  subroutine go()
    call nonexistent(1.0)
  end subroutine
end module
)");
  EXPECT_THROW(in.call("m", "go"), EvalError);
}

TEST_F(InterpTest, DeterministicAcrossRuns) {
  const char* src = R"(
module m
  real :: x
contains
  subroutine go()
    integer :: i
    x = 0.1
    do i = 1, 50
      x = 3.9 * x * (1.0 - x)
    end do
  end subroutine
end module
)";
  auto& in1 = load(src);
  in1.call("m", "go");
  const double r1 = in1.module_var("m", "x")->as_real();
  // Fresh interpreter over the same AST.
  files_.clear();
  auto& in2 = load(src);
  in2.call("m", "go");
  EXPECT_DOUBLE_EQ(r1, in2.module_var("m", "x")->as_real());
}

}  // namespace
}  // namespace rca::interp
