# End-to-end smoke of the observability pipeline, run as a ctest via
# `cmake -P` (see bench/CMakeLists.txt for the registration):
#   1. run table1_sst_sort --quick --json -> a run report must appear,
#   2. report_diff --validate must accept it,
#   3. a second run with identical parameters must diff clean (exit 0) —
#      the counting backend is deterministic and the `host` sections are
#      skipped,
#   4. a run with doubled --n must be flagged as changed (exit 1).
# Expects -DTABLE1=<bin> -DREPORT_DIFF=<bin> -DWORK_DIR=<dir>.
cmake_minimum_required(VERSION 3.16)

foreach(var TABLE1 REPORT_DIFF WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_json_smoke: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

set(ARGS --quick --cores=2 --n=20000 --near-mb=1)

function(run_or_die label expect_rc)
  execute_process(COMMAND ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expect_rc})
    message(FATAL_ERROR
      "${label}: expected exit ${expect_rc}, got ${rc}\n"
      "stdout:\n${out}\nstderr:\n${err}")
  endif()
  message(STATUS "${label}: exit ${rc} (expected)")
endfunction()

# 1. Emit a baseline report.
run_or_die("bench --json emits report" 0
  "${TABLE1}" ${ARGS} --json "${WORK_DIR}/baseline.json")
if(NOT EXISTS "${WORK_DIR}/baseline.json")
  message(FATAL_ERROR "table1_sst_sort --json did not write baseline.json")
endif()

# 2. Schema validation.
run_or_die("report_diff --validate accepts report" 0
  "${REPORT_DIFF}" --validate "${WORK_DIR}/baseline.json")

# Malformed documents must be rejected.
file(WRITE "${WORK_DIR}/bogus.json" "{\"schema\": \"not.a.run_report\"}")
run_or_die("report_diff --validate rejects bogus schema" 1
  "${REPORT_DIFF}" --validate "${WORK_DIR}/bogus.json")

# 3. Deterministic re-run diffs clean.
run_or_die("bench re-run with same params" 0
  "${TABLE1}" ${ARGS} --json "${WORK_DIR}/rerun.json")
run_or_die("identical-params diff is clean" 0
  "${REPORT_DIFF}" "${WORK_DIR}/baseline.json" "${WORK_DIR}/rerun.json")

# 4. Doubling n changes every traffic counter.
run_or_die("bench run with doubled n" 0
  "${TABLE1}" --quick --cores=2 --n=40000 --near-mb=1
  --json "${WORK_DIR}/regressed.json")
run_or_die("changed report is flagged" 1
  "${REPORT_DIFF}" "${WORK_DIR}/baseline.json" "${WORK_DIR}/regressed.json")

message(STATUS "bench_json_smoke: all stages passed")
