# Runs BINARY and fails unless its stdout equals the file EXPECTED byte for
# byte. The actual output is left in ACTUAL so a failure can be diffed:
#   cmake -DBINARY=... -DEXPECTED=... -DACTUAL=... -P compare_transcript.cmake
execute_process(COMMAND ${BINARY} OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with status ${rc}")
endif()
file(WRITE ${ACTUAL} "${actual}")
file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "transcript differs from the golden file; inspect with\n"
                      "  diff -u ${EXPECTED} ${ACTUAL}")
endif()
