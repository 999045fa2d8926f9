# Runs each paper-table binary in a scratch directory and compares its
# stdout byte for byte with tests/golden/<binary>.txt, so a change that
# moves a paper number shows up in the diff of its golden file.
#
#   cmake -DBENCH_DIR=<dir of the bench binaries> -DTABLES=<a,b,...>
#         -DGOLDEN_DIR=<golden dir> -DWORK_DIR=<scratch dir>
#         -P check_paper_tables.cmake
#
# To re-pin after an intended change, copy WORK_DIR/<binary>.txt over
# the golden file. A mismatch also prints the first differing lines
# (line number, golden, actual), since WORK_DIR may not outlive the run.
foreach(var BENCH_DIR TABLES GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()

include("${CMAKE_CURRENT_LIST_DIR}/golden_diff.cmake")

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
string(REPLACE "," ";" tables "${TABLES}")
set(mismatches 0)
foreach(name IN LISTS tables)
  set(actual "${WORK_DIR}/${name}.txt")
  set(golden "${GOLDEN_DIR}/${name}.txt")
  execute_process(COMMAND "${BENCH_DIR}/${name}" WORKING_DIRECTORY "${WORK_DIR}"
                  OUTPUT_FILE "${actual}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(STATUS "${name}: FAILED (exited with ${rc})")
    math(EXPR mismatches "${mismatches} + 1")
    continue()
  endif()
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${golden}" "${actual}"
                  RESULT_VARIABLE differs OUTPUT_QUIET ERROR_QUIET)
  if(differs EQUAL 0)
    message(STATUS "${name}: OK")
  else()
    message(STATUS "${name}: FAILED (diff -u ${golden} ${actual})")
    if(EXISTS "${golden}")
      print_differing_lines("${golden}" "${actual}" 20)
    endif()
    math(EXPR mismatches "${mismatches} + 1")
  endif()
endforeach()
if(NOT mismatches EQUAL 0)
  message(FATAL_ERROR "${mismatches} paper table(s) differ from ${GOLDEN_DIR}")
endif()
