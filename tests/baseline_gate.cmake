# The checked-in baseline gate, run as a ctest via `cmake -P` (see
# bench/CMakeLists.txt for the registration). Every report under
# bench/baselines/ is regenerated with the bench command its CI step uses
# (.github/workflows/ci.yml) and must diff against the checked-in file with
# zero changed or vanished cost leaves (report_diff --max-changed=0). Leaves
# only the new report has, such as the read/write split counters against a
# baseline that predates them, are listed but not counted.
# Expects -DBENCH_DIR=<bench binaries> -DBASELINES=<dir> -DWORK_DIR=<dir>.
cmake_minimum_required(VERSION 3.16)

foreach(var BENCH_DIR BASELINES WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "baseline_gate: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# gate(<baseline name> <bench> <args...>)
function(gate baseline bench)
  set(report "${WORK_DIR}/${baseline}.json")
  execute_process(
    COMMAND "${BENCH_DIR}/${bench}" ${ARGN} --json "${report}"
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "baseline_gate: ${bench} failed (exit ${rc})\n"
      "stdout:\n${out}\nstderr:\n${err}")
  endif()
  execute_process(
    COMMAND "${BENCH_DIR}/report_diff" --max-changed=0
            "${BASELINES}/${baseline}.json" "${report}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "baseline_gate: ${bench} no longer reproduces ${baseline}.json "
      "(exit ${rc})\nstdout:\n${out}\nstderr:\n${err}")
  endif()
  message(STATUS "baseline_gate: ${baseline} reproduces")
endfunction()

gate(table1_quick table1_sst_sort --quick --cores=2 --n=20000 --near-mb=1)
gate(table1_sim_quick table1_sst_sort --cores=4 --n=60000 --near-mb=1)
gate(kmeans_quick kmeans_scratchpad --points=20000 --iters=4)
gate(sweep_omega_quick sweep_omega --quick --cores=2)
gate(server_quick server_mixed --quick --cores=2)
gate(trace_overhead_quick trace_overhead --cores=2 --n=60000 --near-kb=256
     --trace-dir=trace-overhead-logs)
gate(racecheck_quick racecheck_overhead --cores=2 --n=60000 --near-kb=256)
