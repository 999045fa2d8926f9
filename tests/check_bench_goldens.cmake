# Runs each JSON bench in a scratch directory and compares the
# BENCH_<name>.json it writes with the committed copy in GOLDEN_DIR. A
# bench that exits non-zero fails its own gates and fails the check.
# Both files must have the one bench schema's top-level keys in order
# ("bench", "rows", "gates", "gates_pass", "host"). Every field before
# the trailing "host" key must match byte for byte; what follows it
# (wall time, thread counts) depends on the machine and is not compared.
#
#   cmake -DBENCH_DIR=<dir of the bench binaries> -DBENCHES=<a,b,...>
#         -DGOLDEN_DIR=<dir of the committed BENCH_*.json>
#         -DWORK_DIR=<scratch dir> -P check_bench_goldens.cmake
#
# To re-pin after an intended change, copy WORK_DIR/BENCH_<name>.json
# over the committed file, so its diff shows what moved. A mismatch
# prints the first differing lines (line number, golden, actual).
foreach(var BENCH_DIR BENCHES GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()

include("${CMAKE_CURRENT_LIST_DIR}/golden_diff.cmake")

# Reads `file` up to its "host" key. Sets `out` to "SCHEMA" when the
# file lacks one of the schema's top-level keys (two-space indented) or
# has them out of order.
function(read_outside_host file out)
  file(READ "${file}" text)
  set(last -1)
  foreach(key bench rows gates gates_pass host)
    string(FIND "${text}" "\n  \"${key}\":" at)
    if(at LESS_EQUAL last)
      set(${out} "SCHEMA" PARENT_SCOPE)
      return()
    endif()
    set(last ${at})
  endforeach()
  string(SUBSTRING "${text}" 0 ${last} text)
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
string(REPLACE "," ";" benches "${BENCHES}")
set(mismatches 0)
foreach(name IN LISTS benches)
  string(REGEX REPLACE "^bench_" "" short "${name}")
  set(json "BENCH_${short}.json")
  execute_process(COMMAND "${BENCH_DIR}/${name}" WORKING_DIRECTORY "${WORK_DIR}"
                  OUTPUT_FILE "${WORK_DIR}/${name}.txt" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    # The gate lines the bench printed as failing.
    message(STATUS "${name}: FAILED (exited with ${rc})")
    file(STRINGS "${WORK_DIR}/${name}.txt" failed_gates REGEX "FAIL")
    foreach(line IN LISTS failed_gates)
      message(STATUS "  ${line}")
    endforeach()
    math(EXPR mismatches "${mismatches} + 1")
    continue()
  endif()
  if(NOT EXISTS "${WORK_DIR}/${json}")
    message(STATUS "${name}: FAILED (${json} not written)")
    math(EXPR mismatches "${mismatches} + 1")
    continue()
  endif()
  read_outside_host("${WORK_DIR}/${json}" got)
  set(want "SCHEMA")
  if(EXISTS "${GOLDEN_DIR}/${json}")
    read_outside_host("${GOLDEN_DIR}/${json}" want)
  endif()
  if(want STREQUAL "SCHEMA" OR got STREQUAL "SCHEMA")
    message(STATUS "${name}: FAILED (the committed or the written ${json} "
                   "lacks the top-level keys bench, rows, gates, gates_pass "
                   "and host, in that order)")
    math(EXPR mismatches "${mismatches} + 1")
  elseif(want STREQUAL got)
    message(STATUS "${name}: OK")
  else()
    message(STATUS "${name}: FAILED (diff ${GOLDEN_DIR}/${json} ${WORK_DIR}/${json})")
    print_differing_text("${want}" "${got}" 10 "line")
    math(EXPR mismatches "${mismatches} + 1")
  endif()
endforeach()
if(NOT mismatches EQUAL 0)
  message(FATAL_ERROR "${mismatches} bench file(s) differ from ${GOLDEN_DIR}")
endif()
