# The paper-shape gate, run as one ctest via `cmake -P` (see
# bench/CMakeLists.txt for the registration). Each bench below runs at its
# default flags and exits non-zero when one of its `shape:` verdicts prints
# NO, so a change that breaks one of the paper's claims fails tier-1:
#   theory_validation  S4/S5: counts track Theorem 6, Theorem 10 scaling
#   validate_backends  S4b: counting model and cycle sim agree on traffic
#   sweep_skew         S6: merge-path balance exact on every distribution
#   sweep_cores        S2: compute- to memory-bound flip and NMsort crossover
#   table1_sst_sort    T1: NMsort beats GNU sort, speedup rising with rho
# Expects -DBENCH_DIR=<bench binaries> -DWORK_DIR=<dir>.
cmake_minimum_required(VERSION 3.16)

foreach(var BENCH_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "paper_shapes: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(failed "")
foreach(bench theory_validation validate_backends sweep_skew sweep_cores
              table1_sst_sort)
  execute_process(
    COMMAND "${BENCH_DIR}/${bench}"
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(REGEX MATCHALL "shape:[^\n]*" shapes "${out}")
  string(REPLACE ";" "\n  " shapes "${shapes}")
  message(STATUS "paper_shapes: ${bench} exit ${rc}\n  ${shapes}")
  if(NOT rc EQUAL 0)
    list(APPEND failed ${bench})
    message(STATUS "stdout:\n${out}\nstderr:\n${err}")
  endif()
endforeach()

if(failed)
  message(FATAL_ERROR "paper_shapes: shape verdicts failed in: ${failed}")
endif()
