# Fails unless PROGRAM, run with the one argument ARG, exits with EXPECT:
#   cmake -DPROGRAM=<bin> -DARG=<arg> -DEXPECT=<code> -P expect_exit.cmake
execute_process(COMMAND "${PROGRAM}" "${ARG}" RESULT_VARIABLE rc
  OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL EXPECT)
  message(FATAL_ERROR
    "${PROGRAM} ${ARG}: expected exit ${EXPECT}, got ${rc}\n${out}${err}")
endif()
