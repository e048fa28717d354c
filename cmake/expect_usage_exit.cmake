# ctest helper: runs CMD with the arguments ARGS (one string, split like a
# shell command line) and passes only if the process exits with status 2
# after printing a usage line, i.e. the program's flag parser rejected the
# input.
#   cmake -DCMD=<binary> "-DARGS=<arg> [<arg>...]" -P expect_usage_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CMD}" ${args}
  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "'${ARGS}': expected exit status 2, got '${rc}'\n${err}")
endif()
if(NOT err MATCHES "usage: ")
  message(FATAL_ERROR "'${ARGS}': exit status 2 without a usage line\n${err}")
endif()
