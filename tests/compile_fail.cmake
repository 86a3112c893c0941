# Compile-fail gate for Machine::try_alloc_near, run as a ctest via
# `cmake -P` (see tests/CMakeLists.txt for the registration). Compiles
# tests/compile_fail/try_alloc_near.cpp once per case with the project's
# warning flags: each negative case must be rejected with its expected
# diagnostic, and the control case must build, so a harness that cannot
# compile anything cannot pass.
# Expects -DCXX=<compiler> -DFLAGS=<flags, |-separated> -DSOURCE=<file>.
cmake_minimum_required(VERSION 3.16)

foreach(var CXX FLAGS SOURCE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compile_fail: -D${var}=... is required")
  endif()
endforeach()
string(REPLACE "|" ";" FLAGS "${FLAGS}")

# compile(<case>): sets rc and out (stdout and stderr merged) in the caller.
function(compile case)
  execute_process(
    COMMAND "${CXX}" ${FLAGS} -fsyntax-only -DTLM_CASE_${case} "${SOURCE}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
  set(rc "${rc}" PARENT_SCOPE)
  set(out "${out}" PARENT_SCOPE)
endfunction()

# expect_error(<case> <diagnostic regex>)
function(expect_error case regex)
  compile(${case})
  if(rc EQUAL 0)
    message(FATAL_ERROR "compile_fail: case ${case} built; it must not")
  endif()
  if(NOT out MATCHES "${regex}")
    message(FATAL_ERROR "compile_fail: case ${case} failed, but not with a "
      "diagnostic matching '${regex}':\n${out}")
  endif()
  message(STATUS "compile_fail: ${case} rejected as expected")
endfunction()

compile(CONTROL)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "compile_fail: the control case must build:\n${out}")
endif()
message(STATUS "compile_fail: CONTROL builds")

expect_error(SPAN "conversion from [^\n]*optional<[^\n]* to [^\n]*span<")
expect_error(POINTER "conver[^\n]*optional<[^\n]* to [^\n]*\\*")
expect_error(DISCARD "ignoring return value[^\n]*nodiscard[^\n]*unused-result")
