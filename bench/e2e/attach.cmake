# Attaches bench/e2e to a configure of the repository root, so that
# bench_e2e builds against the repository's own library targets (same
# sources, flags and generated files as what ships) without the
# repository's build files listing it:
#
#   cmake -S . -B .bench_build -DCMAKE_PROJECT_INCLUDE=$PWD/bench/e2e/attach.cmake
#   cmake --build .bench_build --target bench_e2e
#
# CMake includes this file inside the root project() call, before the
# root sets its compile options and adds its subdirectories. The
# deferred call reads bench/e2e/CMakeLists.txt after the root
# CMakeLists.txt has finished, so bench_e2e gets the root's options
# like every other target. (A deferred call may not add a
# subdirectory, hence include().) bench/e2e/run.py does all this
# itself.
set(AHB_BENCH_E2E_DIR ${CMAKE_CURRENT_LIST_DIR})
function(ahb_attach_bench_e2e)
  include(${AHB_BENCH_E2E_DIR}/CMakeLists.txt)
endfunction()
cmake_language(DEFER CALL ahb_attach_bench_e2e)
