# Helpers shared by the golden-file checks (check_paper_tables.cmake,
# check_trace_goldens.cmake): report where a regenerated artifact first
# parts from its committed copy, since the scratch copy may not outlive
# the ctest run.

# Moves the first line of the variable named `text` into `line`.
macro(pop_line text line)
  string(FIND "${${text}}" "\n" newline)
  if(newline EQUAL -1)
    set(${line} "${${text}}")
    set(${text} "")
  else()
    string(SUBSTRING "${${text}}" 0 ${newline} ${line})
    math(EXPR rest "${newline} + 1")
    string(SUBSTRING "${${text}}" ${rest} -1 ${text})
  endif()
endmacro()

# Prints up to `limit` differing lines of the strings `want` (golden)
# and `got` (actual), each labelled "<unit> <number>".
function(print_differing_text want got limit unit)
  set(number 0)
  set(shown 0)
  while(NOT (want STREQUAL "" AND got STREQUAL ""))
    math(EXPR number "${number} + 1")
    foreach(side want got)
      if(${side} STREQUAL "")
        set(${side}_line "(end of file)")
      else()
        pop_line(${side} ${side}_line)
      endif()
    endforeach()
    if(NOT want_line STREQUAL got_line)
      if(shown EQUAL limit)
        message(STATUS "  ... more differing ${unit}s not shown")
        break()
      endif()
      message(STATUS "  ${unit} ${number} golden: ${want_line}")
      message(STATUS "  ${unit} ${number} actual: ${got_line}")
      math(EXPR shown "${shown} + 1")
    endif()
  endwhile()
endfunction()

# Prints up to `limit` line-by-line differences between two files.
function(print_differing_lines golden actual limit)
  file(READ "${golden}" want)
  file(READ "${actual}" got)
  print_differing_text("${want}" "${got}" ${limit} "line")
endfunction()
