# The checked-in baseline gate, run as a ctest via `cmake -P` (see
# bench/CMakeLists.txt for the registration). Every report under
# bench/baselines/ is regenerated with the bench command line below; the
# bench must exit 0 (its own shape gates, such as the sweep_omega crossover
# and the server_mixed isolation verdicts, ride on that exit code), the new
# report must pass report_diff --validate, and it must diff against the
# checked-in file with zero changed or vanished cost leaves
# (report_diff --max-changed=0). Leaves only the new report has, such as the
# read/write split counters against a baseline that predates them, are
# listed but not counted.
# Expects -DBENCH_DIR=<bench binaries> -DBASELINES=<dir> -DWORK_DIR=<dir>.
cmake_minimum_required(VERSION 3.16)

foreach(var BENCH_DIR BASELINES WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "baseline_gate: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# must_pass(<what failed> <command...>): fails the gate with the command's
# output when it exits non-zero.
function(must_pass what)
  execute_process(COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "baseline_gate: ${what} (exit ${rc})\n"
      "stdout:\n${out}\nstderr:\n${err}")
  endif()
endfunction()

# gate(<baseline name> <bench> <args...>)
function(gate baseline bench)
  set(report "${WORK_DIR}/${baseline}.json")
  must_pass("${bench} failed"
    "${BENCH_DIR}/${bench}" ${ARGN} --json "${report}")
  must_pass("${bench} wrote an invalid ${baseline} report"
    "${BENCH_DIR}/report_diff" --validate "${report}")
  must_pass("${bench} no longer reproduces ${baseline}.json"
    "${BENCH_DIR}/report_diff" --max-changed=0
    "${BASELINES}/${baseline}.json" "${report}")
  message(STATUS "baseline_gate: ${baseline} validates and reproduces")
endfunction()

gate(table1_quick table1_sst_sort --quick --cores=2 --n=20000 --near-mb=1)
gate(table1_sim_quick table1_sst_sort --cores=4 --n=60000 --near-mb=1)
gate(kmeans_quick kmeans_scratchpad --points=20000 --iters=4)
gate(sweep_omega_quick sweep_omega --quick --cores=2)
gate(server_quick server_mixed --quick --cores=2)
gate(trace_overhead_quick trace_overhead --cores=2 --n=60000 --near-kb=256
     --trace-dir=trace-overhead-logs)
gate(racecheck_quick racecheck_overhead --cores=2 --n=60000 --near-kb=256)
