// Regenerates Table 2: the CAM output variables selected per experiment
// (§3 methods) and their internal counterparts (via the instrumented I/O
// name map, §5.1).
//
// Paper rows (output variables -> internal variables):
//   WSUBBUG     wsub                                   -> wsub
//   RANDOMBUG   omega                                  -> omega
//   GOFFGRATCH  aqsnow freqs cldhgh precsl ansnow ...  -> qsout2 freqs ...
//   DYN3BUG     vv omega z3 uu omegat                  -> v omega z3 u t
//   RAND-MT     flds taux snowhlnd flns qrl            -> flwds wsx ...
//   AVX2        taux trefht snowhlnd ps u10 shflx      -> wsx tref ...
// Expected shape: experiment-appropriate families (isolated wsub; dynamics
// for the dynamics bugs; cloud/precip for GOFFGRATCH; radiation for
// RAND-MT; surface/precip diagnostics for AVX2).
#include "bench/bench_common.hpp"
#include "support/strings.hpp"

using namespace rca;

int main() {
  bench::banner("Table 2 — selected output variables and internal counterparts",
                "both selection methods per experiment; lasso tuned to ~5 "
                "variables; internal names via the outfld I/O map");

  engine::Pipeline pipe(bench::default_config());

  Table table("Table 2");
  table.set_header({"Experiment", "Output variables (selected)",
                    "Internal variables"});
  for (const model::ScenarioSpec* s : bench::paper_scenarios()) {
    engine::ExperimentOutcome outcome = pipe.run_scenario(*s);
    table.add_row({s->paper_id, join(outcome.criteria_outputs, ", "),
                   join(outcome.internal_names, ", ")});
  }
  table.print(std::cout);

  std::printf("\nPer-experiment detail (lasso vs median ranking):\n");
  for (const model::ScenarioSpec* s : bench::paper_scenarios()) {
    engine::ExperimentOutcome outcome = pipe.run_scenario(*s);
    std::printf("\n-- %s (ECT verdict: %s, %zu failing PCs)\n",
                s->paper_id.c_str(),
                outcome.verdict.pass ? "PASS" : "FAIL",
                outcome.verdict.failing_pcs.size());
    bench::print_selection(outcome);
  }
  return 0;
}
