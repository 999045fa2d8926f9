# Runs every example in a scratch directory (some write artifacts to
# their working directory). Each example checks its own output and
# exits non-zero on a mismatch; any failing example fails the test and
# prints its output.
#
#   cmake -DEXAMPLES=<exe>,<exe>,... -DWORK_DIR=<scratch dir>
#         -P run_examples.cmake
foreach(var EXAMPLES WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} is not set")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
string(REPLACE "," ";" EXAMPLES "${EXAMPLES}")

set(failures 0)
foreach(exe IN LISTS EXAMPLES)
  get_filename_component(name "${exe}" NAME)
  execute_process(COMMAND "${exe}" WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(rc EQUAL 0)
    message(STATUS "${name}: OK")
  else()
    message(STATUS "${name}: FAILED (exit ${rc})\n${out}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()

if(failures GREATER 0)
  message(FATAL_ERROR "${failures} example(s) failed")
endif()
