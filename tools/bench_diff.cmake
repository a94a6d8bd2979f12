# bench_diff — compare two rca.bench_graph.v1 JSON files (perf trajectory).
#
# Usage:
#   cmake -DBASELINE=BENCH_graph.json -DCURRENT=new.json \
#         [-DTOL_PERCENT=15] -P tools/bench_diff.cmake
#
# Every kernel in the baseline must exist in the current run, and its
# *normalized* median (median_ms / calibration_ms, both measured in the same
# process) must not be more than TOL_PERCENT slower. Normalization cancels
# absolute runner speed: a uniformly slow CI machine scales the calibration
# workload and the kernels alike, so only relative regressions of the graph
# kernels trip the gate. Speedups never fail — commit the regenerated JSON
# to ratchet the trajectory instead.
#
# The current run's self-gates (sampled-betweenness speedup and rank
# correlation) must also have passed.
cmake_minimum_required(VERSION 3.19)  # string(JSON ...)

if(NOT DEFINED BASELINE OR NOT DEFINED CURRENT)
  message(FATAL_ERROR "usage: cmake -DBASELINE=a.json -DCURRENT=b.json -P bench_diff.cmake")
endif()
if(NOT DEFINED TOL_PERCENT)
  set(TOL_PERCENT 15)
endif()

file(READ ${BASELINE} base_json)
file(READ ${CURRENT} cur_json)

foreach(doc IN ITEMS base cur)
  string(JSON schema ERROR_VARIABLE err GET ${${doc}_json} schema)
  if(err OR NOT schema STREQUAL "rca.bench_graph.v1")
    message(FATAL_ERROR "bench_diff: ${doc} file is not an rca.bench_graph.v1 document")
  endif()
endforeach()

# Parse a JSON number (decimal, optional fraction/exponent from %.17g) into
# fixed-point micro-units (value * 1e6, truncated) so integer math() can
# compare it. Handles the value range this schema produces (~1e-3..1e4).
function(to_fixed value out)
  if(NOT "${value}" MATCHES "^(-?)([0-9]+)(\\.([0-9]+))?([eE]([+-]?[0-9]+))?$")
    message(FATAL_ERROR "bench_diff: cannot parse number '${value}'")
  endif()
  set(sign "${CMAKE_MATCH_1}")
  set(ip "${CMAKE_MATCH_2}")
  set(fp "${CMAKE_MATCH_4}")
  set(ex "${CMAKE_MATCH_6}")
  if(ex STREQUAL "")
    set(ex 0)
  endif()
  string(LENGTH "${fp}" fplen)
  # fixed = (ip.fp) * 10^ex * 1e6 = digits * 10^(6 + ex - len(fp))
  set(digits "${ip}${fp}")
  math(EXPR shift "6 + ${ex} - ${fplen}")
  if(shift GREATER_EQUAL 0)
    string(REPEAT "0" ${shift} zeros)
    set(digits "${digits}${zeros}")
  else()
    math(EXPR keep "0 - ${shift}")
    string(LENGTH "${digits}" dlen)
    math(EXPR keep "${dlen} - ${keep}")
    if(keep LESS_EQUAL 0)
      set(digits 0)
    else()
      string(SUBSTRING "${digits}" 0 ${keep} digits)
    endif()
  endif()
  # Strip leading zeros so math() cannot misread the literal. A single
  # "^0+" match is the whole job: CMake re-anchors "^" after each match, so
  # a pattern that also consumes the next digit would strip interior zeros.
  string(REGEX REPLACE "^0+" "" digits "${digits}")
  if(digits STREQUAL "")
    set(digits 0)
  endif()
  set(${out} "${sign}${digits}" PARENT_SCOPE)
endfunction()

# ---------------------------------------------------------------------------
# Self-gates of the current run must hold (speedup + rank correlation).
# ---------------------------------------------------------------------------
string(JSON gates_pass ERROR_VARIABLE err GET ${cur_json} gates pass)
if(err)
  message(FATAL_ERROR "bench_diff: ${CURRENT} has no gates.pass field")
endif()
if(NOT gates_pass STREQUAL "ON" AND NOT gates_pass STREQUAL "true")
  string(JSON sp GET ${cur_json} gates sampled_speedup)
  string(JSON rho GET ${cur_json} gates sampled_spearman)
  message(FATAL_ERROR "bench_diff: current run failed its self-gates "
          "(speedup=${sp}, spearman=${rho})")
endif()

# ---------------------------------------------------------------------------
# Per-kernel normalized medians: slower than baseline * (1 + tol) fails.
# ---------------------------------------------------------------------------
string(JSON base_kernels GET ${base_json} kernels)
string(JSON cur_kernels GET ${cur_json} kernels)
string(JSON n LENGTH ${base_kernels})
set(checked 0)
if(n GREATER 0)
  math(EXPR last "${n} - 1")
  foreach(i RANGE ${last})
    string(JSON name MEMBER ${base_kernels} ${i})
    string(JSON base_val GET ${base_kernels} ${name} normalized)
    string(JSON cur_val ERROR_VARIABLE err GET ${cur_kernels} ${name} normalized)
    if(err)
      message(FATAL_ERROR "bench_diff: kernel '${name}' missing from ${CURRENT}")
    endif()
    to_fixed("${base_val}" base_fixed)
    to_fixed("${cur_val}" cur_fixed)
    math(EXPR allowed "(${base_fixed} * (100 + ${TOL_PERCENT})) / 100")
    if(cur_fixed GREATER allowed)
      message(FATAL_ERROR
        "bench_diff: kernel '${name}' slowed beyond ${TOL_PERCENT}%: "
        "baseline normalized=${base_val} current=${cur_val}")
    endif()
    message(STATUS "bench_diff: ${name}: ${base_val} -> ${cur_val} ok")
    math(EXPR checked "${checked} + 1")
  endforeach()
endif()
message(STATUS "bench_diff: ${checked} kernels within +${TOL_PERCENT}%")
message(STATUS "bench_diff: OK")
