# Regenerates the seed trace artifacts (the fig7 CP-port waveform and the
# edge-detect Chrome trace) in a scratch directory and compares their
# SHA-256 against the committed goldens. Any byte that moves fails.
#
#   cmake -DFIG7=<fig7_timing> -DEDGE=<edge_detect> -DGOLDENS=<sha256 file>
#         -DWORK_DIR=<scratch dir> -P check_trace_goldens.cmake
foreach(var FIG7 EDGE GOLDENS WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(exe IN ITEMS "${FIG7}" "${EDGE}")
  execute_process(COMMAND "${exe}" WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${exe} exited with ${rc}")
  endif()
endforeach()

# Same format as `sha256sum -c`: "<hex digest>  <file name>" per line.
file(STRINGS "${GOLDENS}" lines)
set(mismatches 0)
foreach(line IN LISTS lines)
  if(NOT line MATCHES "^([0-9a-f]+)  (.+)$")
    message(FATAL_ERROR "malformed golden line: '${line}'")
  endif()
  set(expected "${CMAKE_MATCH_1}")
  set(name "${CMAKE_MATCH_2}")
  if(NOT EXISTS "${WORK_DIR}/${name}")
    message(STATUS "${name}: FAILED (not written)")
    math(EXPR mismatches "${mismatches} + 1")
    continue()
  endif()
  file(SHA256 "${WORK_DIR}/${name}" actual)
  if(actual STREQUAL expected)
    message(STATUS "${name}: OK")
  else()
    message(STATUS "${name}: FAILED (sha256 ${actual}, golden ${expected})")
    math(EXPR mismatches "${mismatches} + 1")
  endif()
endforeach()
if(NOT mismatches EQUAL 0)
  message(FATAL_ERROR "${mismatches} trace artifact(s) differ from ${GOLDENS}")
endif()
