# ctest helper: runs CMD with the single argument ARG and passes only if
# the process exits with status 2 after printing a usage line, i.e. the
# shared bench parser (bench/bench_util.hpp) rejected the argument.
#   cmake -DCMD=<binary> -DARG=<argument> -P expect_usage_exit.cmake
execute_process(COMMAND "${CMD}" "${ARG}"
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "'${ARG}': expected exit status 2, got '${rc}'\n${err}")
endif()
if(NOT err MATCHES "usage: ")
  message(FATAL_ERROR "'${ARG}': exit status 2 without a usage line\n${err}")
endif()
