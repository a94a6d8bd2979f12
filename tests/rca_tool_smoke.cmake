# Drives the rca-tool CLI through the paper workflow end-to-end.
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

function(run)
  execute_process(COMMAND ${TOOL} ${ARGN}
                  WORKING_DIRECTORY ${WORKDIR}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "rca-tool ${ARGN} failed (${rc}):\n${out}\n${err}")
  endif()
  set(run_out "${out}" PARENT_SCOPE)
  set(run_err "${err}" PARENT_SCOPE)
endfunction()

# Asserts counter `name` in metrics file `file` equals `expected`.
function(expect_counter file name expected)
  file(READ ${WORKDIR}/${file} doc)
  string(JSON val ERROR_VARIABLE err GET ${doc} counters ${name})
  if(err OR NOT val EQUAL expected)
    message(FATAL_ERROR
      "${file}: counter '${name}' expected ${expected}, got '${val}' ${err}")
  endif()
endfunction()

function(expect_same_bytes a b why)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${WORKDIR}/${a} ${WORKDIR}/${b} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${a} and ${b} differ: ${why}")
  endif()
endfunction()

run(generate --out corpus --seed 11)
run(graph --src corpus --build-list corpus/build_list.txt --coverage --out mg.tsv)
run(info --graph mg.tsv)
run(slice --graph mg.tsv --output flds --cam-only --show 3)
run(communities --graph mg.tsv --method louvain --min-size 5)
run(centrality --graph mg.tsv --modules --kind inout-eigenvector --top 5)

# Full analysis with the observability sink on: the metrics document must be
# an rca.metrics.v1 JSON with one span per pipeline stage and the graph-size
# counters CI's perf tripwire diffs.
run(analyze --experiment goffgratch --members 16 --metrics-out metrics.json --trace)
file(READ ${WORKDIR}/metrics.json metrics)
string(JSON schema ERROR_VARIABLE schema_err GET ${metrics} schema)
if(schema_err OR NOT schema STREQUAL "rca.metrics.v1")
  message(FATAL_ERROR "analyze --metrics-out wrote an invalid document: ${schema_err}")
endif()
foreach(stage experiment ect selection slice refinement)
  if(NOT metrics MATCHES "\"name\":\"${stage}\"")
    message(FATAL_ERROR "metrics.json is missing the '${stage}' span")
  endif()
endforeach()
foreach(counter model.runs graph.betweenness.sweeps refinement.iterations)
  string(JSON val ERROR_VARIABLE err GET ${metrics} counters ${counter})
  if(err OR val LESS 1)
    message(FATAL_ERROR "metrics.json counter '${counter}' missing or zero: ${err}")
  endif()
endforeach()
foreach(gauge pipeline.graph_nodes pipeline.graph_edges pipeline.slice_nodes)
  string(JSON val ERROR_VARIABLE err GET ${metrics} gauges ${gauge})
  if(err OR val LESS 1)
    message(FATAL_ERROR "metrics.json gauge '${gauge}' missing or zero: ${err}")
  endif()
endforeach()

# ---------------------------------------------------------------------------
# Snapshot cache behaviour: a cold `graph --snapshot` builds and stores, a
# warm rerun reports a hit, skips parse+build, and emits byte-identical
# output; touching any source file invalidates the key.
run(graph --src corpus --build-list corpus/build_list.txt --coverage
    --snapshot cache --out mg_cold.tsv --metrics-out m_cold.json)
expect_counter(m_cold.json meta.snapshot.misses 1)
expect_counter(m_cold.json meta.snapshot.stores 1)

run(graph --src corpus --build-list corpus/build_list.txt --coverage
    --snapshot cache --out mg_warm.tsv --metrics-out m_warm.json)
if(NOT run_out MATCHES "snapshot cache hit")
  message(FATAL_ERROR "warm graph run did not report a snapshot cache hit:\n${run_out}")
endif()
expect_counter(m_warm.json meta.snapshot.hits 1)
expect_same_bytes(mg_cold.tsv mg_warm.tsv "warm cache hit changed the metagraph")
expect_same_bytes(mg_cold.tsv mg.tsv "snapshot path changed the metagraph")

# Any source edit must invalidate the cache key (content-hashed, not mtime).
file(GLOB_RECURSE corpus_files ${WORKDIR}/corpus/*.F90)
list(SORT corpus_files)
list(GET corpus_files 0 touched_file)
file(APPEND ${touched_file} "! touched by smoke test\n")
run(graph --src corpus --build-list corpus/build_list.txt --coverage
    --snapshot cache --out mg_touched.tsv --metrics-out m_touched.json)
expect_counter(m_touched.json meta.snapshot.misses 1)
expect_counter(m_touched.json meta.snapshot.stores 1)
file(READ ${touched_file} restored)
string(REPLACE "! touched by smoke test\n" "" restored "${restored}")
file(WRITE ${touched_file} "${restored}")

# `--experiment` takes a scenario name or the paper's experiment name; both
# pick the same library row. An unknown name fails and lists the accepted
# ones. `analyze` keeps no snapshot cache: a `--snapshot` left over from
# older scripts only draws the unused-option warning and writes nothing.
run(analyze --experiment dyn3 --members 16 --json dyn3_scenario.json
    --snapshot acache)
if(NOT run_err MATCHES "warning: unused option --snapshot" OR
   EXISTS ${WORKDIR}/acache)
  message(FATAL_ERROR "analyze --snapshot was not ignored:\n${run_err}")
endif()
run(analyze --experiment dyn3bug --members 16 --json dyn3_paper.json)
expect_same_bytes(dyn3_scenario.json dyn3_paper.json
                  "scenario name and paper id picked different rows")
execute_process(COMMAND ${TOOL} analyze --experiment no-such-experiment
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE unknown_rc
                OUTPUT_QUIET
                ERROR_VARIABLE unknown_err)
if(unknown_rc EQUAL 0 OR NOT unknown_err MATCHES "accepted: .*dyn3bug")
  message(FATAL_ERROR "analyze accepted an unknown --experiment "
                      "(rc ${unknown_rc}):\n${unknown_err}")
endif()

# A scenario campaign's criteria come from its ECT and lasso: session-only
# flags are a request error, reported and exited with 1 (not a crash).
execute_process(COMMAND ${TOOL} refine --scenario wsub --cam-only
                WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE refine_rc
                OUTPUT_QUIET
                ERROR_VARIABLE refine_err)
if(NOT refine_rc EQUAL 1 OR NOT refine_err MATCHES "error: \"cam_only\"")
  message(FATAL_ERROR "refine --scenario accepted a session-only flag "
                      "(rc ${refine_rc}):\n${refine_err}")
endif()

# ---------------------------------------------------------------------------
# Lint: the generated corpus must be error-free (its dead-store/unused
# warnings are deliberate CESM-style fixtures), the JSON artifact must be an
# rca.diagnostics.v1 document, and the metrics sink must carry the lint.*
# counters the CI gate publishes.
run(lint --src corpus --build-list corpus/build_list.txt --fail-on error
    --json lint.json --metrics-out lint_metrics.json)
file(READ ${WORKDIR}/lint.json lintdoc)
string(JSON lint_schema ERROR_VARIABLE lint_err GET ${lintdoc} schema)
if(lint_err OR NOT lint_schema STREQUAL "rca.diagnostics.v1")
  message(FATAL_ERROR "lint --json wrote an invalid document: ${lint_err}")
endif()
string(JSON lint_errors ERROR_VARIABLE lint_err GET ${lintdoc} counts error)
if(lint_err OR NOT lint_errors EQUAL 0)
  message(FATAL_ERROR "lint reports errors on the generated corpus: ${lint_errors} ${lint_err}")
endif()
string(JSON lint_warnings ERROR_VARIABLE lint_err GET ${lintdoc} counts warning)
if(lint_err OR lint_warnings LESS 1)
  message(FATAL_ERROR "lint found none of the corpus's seeded dead stores: ${lint_err}")
endif()
file(READ ${WORKDIR}/lint_metrics.json lint_metrics)
foreach(counter lint.modules lint.subprograms lint.diagnostics)
  string(JSON val ERROR_VARIABLE err GET ${lint_metrics} counters ${counter})
  if(err OR val LESS 1)
    message(FATAL_ERROR "lint_metrics.json counter '${counter}' missing or zero: ${err}")
  endif()
endforeach()
if(NOT lint_metrics MATCHES "\"name\":\"lint\"")
  message(FATAL_ERROR "lint_metrics.json is missing the 'lint' span")
endif()

# --fail-on warn must flip the exit code on this corpus (it has warnings).
execute_process(COMMAND ${TOOL} lint --src corpus --build-list corpus/build_list.txt
                --fail-on warn WORKING_DIRECTORY ${WORKDIR}
                RESULT_VARIABLE lint_rc OUTPUT_QUIET ERROR_QUIET)
if(lint_rc EQUAL 0)
  message(FATAL_ERROR "lint --fail-on warn ignored the corpus's warnings")
endif()

# ---------------------------------------------------------------------------
# Dead-store pruning keys the snapshot cache separately: the first pruned
# run is a miss (never a stale unpruned hit), the rerun hits, and the pruned
# graph genuinely differs on this corpus (micro_mg's dum churn).
run(graph --src corpus --build-list corpus/build_list.txt --coverage
    --snapshot cache --prune-dead-stores --out mg_pruned.tsv
    --metrics-out m_pruned.json)
expect_counter(m_pruned.json meta.snapshot.misses 1)
expect_counter(m_pruned.json meta.snapshot.stores 1)
run(graph --src corpus --build-list corpus/build_list.txt --coverage
    --snapshot cache --prune-dead-stores --out mg_pruned2.tsv
    --metrics-out m_pruned2.json)
expect_counter(m_pruned2.json meta.snapshot.hits 1)
expect_same_bytes(mg_pruned.tsv mg_pruned2.tsv "warm pruned run changed the metagraph")
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                ${WORKDIR}/mg_pruned.tsv ${WORKDIR}/mg_cold.tsv
                RESULT_VARIABLE same_rc)
if(same_rc EQUAL 0)
  message(FATAL_ERROR "--prune-dead-stores had no effect on the corpus graph")
endif()

# ---------------------------------------------------------------------------
# `graph` builds through the same session store as `watch` and `serve`, so a
# snapshot the CLI writes warm-starts a resident session on the same tree:
# no parse, no build, one snapshot hit.
run(graph --src corpus --build-list corpus/build_list.txt
    --snapshot wcache --out mg_session.tsv)
run(watch --src corpus --build-list corpus/build_list.txt --snapshot wcache
    --iterations 1 --interval-ms 1 --metrics-out w.json)
expect_counter(w.json service.session.snapshot_warm 1)
expect_counter(w.json meta.snapshot.hits 1)
