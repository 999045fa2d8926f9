# Regenerates the seed trace artifacts (the fig7 CP-port waveform and the
# edge-detect Chrome trace) in a scratch directory and compares each byte
# for byte with its committed copy in GOLDEN_DIR. Any byte that moves
# fails.
#
#   cmake -DFIG7=<fig7_timing> -DEDGE=<edge_detect> -DGOLDEN_DIR=<dir>
#         -DWORK_DIR=<scratch dir> -P check_trace_goldens.cmake
#
# To re-pin after an intended change, copy WORK_DIR/<artifact> over the
# golden file. A mismatch prints the first differing lines of the VCD, or
# the first differing events of the JSON trace (written as one line, so
# it is split into events at every "},{").
foreach(var FIG7 EDGE GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()

include("${CMAKE_CURRENT_LIST_DIR}/golden_diff.cmake")

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
foreach(exe IN ITEMS "${FIG7}" "${EDGE}")
  execute_process(COMMAND "${exe}" WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${exe} exited with ${rc}")
  endif()
endforeach()

set(mismatches 0)
foreach(name IN ITEMS fig7_timing.vcd edge_detect_trace.json)
  set(actual "${WORK_DIR}/${name}")
  set(golden "${GOLDEN_DIR}/${name}")
  if(NOT EXISTS "${actual}")
    message(STATUS "${name}: FAILED (not written)")
    math(EXPR mismatches "${mismatches} + 1")
    continue()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${golden}" "${actual}"
                  RESULT_VARIABLE differs OUTPUT_QUIET ERROR_QUIET)
  if(differs EQUAL 0)
    message(STATUS "${name}: OK")
    continue()
  endif()
  message(STATUS "${name}: FAILED (diff ${golden} ${actual})")
  math(EXPR mismatches "${mismatches} + 1")
  if(NOT EXISTS "${golden}")
    continue()
  endif()
  if(name MATCHES "\\.json$")
    file(READ "${golden}" want)
    file(READ "${actual}" got)
    string(REPLACE "},{" "},\n{" want "${want}")
    string(REPLACE "},{" "},\n{" got "${got}")
    print_differing_text("${want}" "${got}" 10 "event")
  else()
    print_differing_lines("${golden}" "${actual}" 10)
  endif()
endforeach()
if(NOT mismatches EQUAL 0)
  message(FATAL_ERROR "${mismatches} trace artifact(s) differ from ${GOLDEN_DIR}")
endif()
