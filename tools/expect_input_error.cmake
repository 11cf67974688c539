# Input-error contract for the report tools: running TOOL on the malformed
# file INPUT must exit 2 with a dtm::Error message on stderr that matches
# the regular expression EXPECT (not crash, and not exit 0 or 1).
#
# Invoked via add_test with -DTOOL=..., -DINPUT=..., -DEXPECT=... (see
# tools/CMakeLists.txt).
execute_process(
  COMMAND "${TOOL}" "${INPUT}"
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit 2 on ${INPUT}, got ${rc}\n"
                      "stdout: ${out}\nstderr: ${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
