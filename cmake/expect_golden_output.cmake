# ctest helper: runs CMD with the single argument ARG and passes only if
# the process exits 0 and its standard output is byte-identical to the
# file GOLDEN. On a mismatch the output is written to ACTUAL, so the two
# files can be diffed.
#   cmake -DCMD=<binary> -DARG=<argument> -DGOLDEN=<file> -DACTUAL=<file>
#         -P expect_golden_output.cmake
execute_process(COMMAND "${CMD}" "${ARG}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "'${CMD} ${ARG}': exit status '${rc}'\n${err}")
endif()
file(READ "${GOLDEN}" golden)
if(NOT out STREQUAL golden)
  file(WRITE "${ACTUAL}" "${out}")
  message(FATAL_ERROR "output of '${CMD} ${ARG}' differs from ${GOLDEN}; "
                      "it is in ${ACTUAL} (diff the two files)")
endif()
