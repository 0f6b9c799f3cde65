# Runs a bench binary and fails unless it exits 0 and its standard output
# contains every expected string. Used by the tier-1 bench entries:
#
#   cmake -DBENCH=<binary> "-DEXPECT=<s1>|<s2>|..." -P expect_output.cmake
#
# The strings are separated by '|' (a ';' would split the ctest argument).
execute_process(COMMAND ${BENCH} OUTPUT_VARIABLE out ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}\n${out}\n${err}")
endif()
string(REPLACE "|" ";" expected "${EXPECT}")
foreach(e IN LISTS expected)
  string(FIND "${out}" "${e}" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "${BENCH}: output lacks '${e}'\n${out}")
  endif()
endforeach()
