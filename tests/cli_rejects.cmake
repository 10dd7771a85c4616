# Runs sobc_cli with a malformed flag and passes only when the tool refuses
# it: a non-zero exit and EXPECT in its stderr.
#   cmake -DCLI=<sobc_cli> -DARGS="stream|g.txt|s.txt|--threads=-2"
#         -DEXPECT="--threads:" -P cli_rejects.cmake
# ARGS separates the command-line arguments with '|'.
string(REPLACE "|" ";" argv "${ARGS}")
execute_process(COMMAND ${CLI} ${argv}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "sobc_cli ${argv} exited 0; expected a rejection")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "sobc_cli ${argv} stderr lacks '${EXPECT}':\n${err}")
endif()
