# Regenerates the pinned rca.campaign.v1 result documents and compares them
# byte for byte with tests/golden/campaign: one scenario campaign per library
# scenario, with simulated sampling (<scenario>.json) and with runtime
# sampling (<scenario>.runtime.json). Any change to slicing, community
# detection, step-6 ranking, sampling or the final ranking shows up here.
#
#   cmake -DTOOL=rca-tool -DGOLDEN=tests/golden/campaign -DWORKDIR=dir \
#         -P campaign_golden_test.cmake
#
# A deliberate change regenerates a document with
#   rca-tool refine --scenario S [--runtime] --json tests/golden/campaign/F
file(REMOVE_RECURSE ${WORKDIR})
file(MAKE_DIRECTORY ${WORKDIR})

set(mismatches "")
foreach(scenario wsub random-node dyn3 goffgratch prng fma-contraction
                 reassoc3)
  foreach(mode simulated runtime)
    if(mode STREQUAL "runtime")
      set(doc ${scenario}.runtime.json)
      set(flags --runtime)
    else()
      set(doc ${scenario}.json)
      set(flags "")
    endif()
    execute_process(COMMAND ${TOOL} refine --scenario ${scenario} ${flags}
                            --json ${WORKDIR}/${doc}
                    RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "refine --scenario ${scenario} ${flags} "
                          "exited ${rc}:\n${err}")
    endif()
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${GOLDEN}/${doc} ${WORKDIR}/${doc}
                    RESULT_VARIABLE differ)
    if(NOT differ EQUAL 0)
      list(APPEND mismatches ${doc})
    endif()
  endforeach()
endforeach()

if(mismatches)
  message(FATAL_ERROR "campaign documents differ from ${GOLDEN}: "
                      "${mismatches} (regenerated copies in ${WORKDIR})")
endif()
