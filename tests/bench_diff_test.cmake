# Drives tools/bench_diff.cmake on hand-made rca.bench_graph.v1 documents.
# The gate's number parser must read sub-millisecond normalized medians
# exactly: 0.0030392 is 3039 micro-units, not 339 with its interior zero
# dropped. Each case compares one kernel and expects the gate's verdict.
#
#   cmake -DSCRIPT=tools/bench_diff.cmake -DWORKDIR=dir -P bench_diff_test.cmake
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

function(write_doc path normalized)
  file(WRITE ${path}
    "{\"schema\":\"rca.bench_graph.v1\",\"kernels\":{\"k\":{\"normalized\":"
    "${normalized}}},\"gates\":{\"pass\":true}}\n")
endfunction()

# expect_verdict(case base current pass|fail): runs the gate at its default
# 15% tolerance and checks the exit code.
function(expect_verdict name base current verdict)
  write_doc(${WORKDIR}/${name}_base.json ${base})
  write_doc(${WORKDIR}/${name}_cur.json ${current})
  execute_process(COMMAND ${CMAKE_COMMAND}
                  -DBASELINE=${WORKDIR}/${name}_base.json
                  -DCURRENT=${WORKDIR}/${name}_cur.json
                  -P ${SCRIPT}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(verdict STREQUAL "pass" AND NOT rc EQUAL 0)
    message(FATAL_ERROR "${name}: ${base} -> ${current} should pass:\n${err}")
  endif()
  if(verdict STREQUAL "fail" AND rc EQUAL 0)
    message(FATAL_ERROR "${name}: ${base} -> ${current} should fail:\n${out}")
  endif()
endfunction()

expect_verdict(unchanged 0.0030392 0.0030392 pass)
expect_verdict(drift_2pct 0.0030392 0.0031 pass)
expect_verdict(slowdown_from 0.0030392 0.0060784 fail)
expect_verdict(slowdown_to 0.0015196 0.0030392 fail)
expect_verdict(large_ok 238.86308175513133 240.0 pass)
expect_verdict(zero 0 0 pass)
