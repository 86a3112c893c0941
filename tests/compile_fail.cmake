# Compile-fail gates, run as ctests via `cmake -P` (see tests/CMakeLists.txt
# for the registrations). Compiles each source under tests/compile_fail/ once
# per case with the project's warning flags: each negative case must be
# rejected with its expected diagnostic, and the source's control case must
# build, so a harness that cannot compile anything cannot pass. Diagnostic
# regexes match both GCC's and Clang's wording.
# Expects -DCXX=<compiler> -DFLAGS=<flags, |-separated>
# -DSOURCES=<files, |-separated>.
cmake_minimum_required(VERSION 3.16)

foreach(var CXX FLAGS SOURCES)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compile_fail: -D${var}=... is required")
  endif()
endforeach()
string(REPLACE "|" ";" FLAGS "${FLAGS}")
string(REPLACE "|" ";" SOURCES "${SOURCES}")

# The negative cases of each source, keyed by its file name without the
# extension: <stem>_CASES names them, <stem>_<case> is the regex the
# rejection's diagnostic must match.
# Machine::try_alloc_near: the optional must be tested before use.
set(try_alloc_near_CASES SPAN POINTER DISCARD)
set(try_alloc_near_SPAN "conversion from [^\n]*optional<[^\n]* to [^\n]*span<")
set(try_alloc_near_POINTER "conver[^\n]*optional<[^\n]* to [^\n]*\\*")
set(try_alloc_near_DISCARD
  "ignoring return value[^\n]*nodiscard[^\n]*unused-result")
# Machine::dma_copy: only Stager can construct the DmaKey it takes.
set(dma_key_CASES NO_KEY KEY BRACED_KEY)
set(dma_key_NO_KEY "no matching (member )?function for call to[^\n]*dma_copy")
set(dma_key_KEY "DmaKey[^\n]*private|private[^\n]*DmaKey")
set(dma_key_BRACED_KEY "DmaKey[^\n]*private|private[^\n]*DmaKey")
# PhaseStats: stored counters are private, read through const accessors.
set(phase_stats_CASES ASSIGN_ACCESSOR ASSIGN_STORAGE ASSIGN_NAME)
set(phase_stats_ASSIGN_ACCESSOR "lvalue required|not assignable")
set(phase_stats_ASSIGN_STORAGE "far_write_blocks_[^\n]*private")
set(phase_stats_ASSIGN_NAME
  "invalid use of (non-static )?member function|must be called")
# Simulator lanes: a lane event's closure is stored by value and copied out.
set(lane_closure_CASES NOT_TRIVIAL TOO_LARGE)
set(lane_closure_NOT_TRIVIAL "closure must be trivially copyable")
set(lane_closure_TOO_LARGE "exceeds the inline capacity")

# compile(<case>): compiles `source` with TLM_CASE_<case> defined; sets rc
# and out (stdout and stderr merged) in the caller.
function(compile case)
  execute_process(
    COMMAND "${CXX}" ${FLAGS} -fsyntax-only -DTLM_CASE_${case} "${source}"
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
    message(FATAL_ERROR "compile_fail: ${stem} case ${case} built; it must not")
  endif()
  if(NOT out MATCHES "${regex}")
    message(FATAL_ERROR "compile_fail: ${stem} case ${case} failed, but not "
      "with a diagnostic matching '${regex}':\n${out}")
  endif()
  message(STATUS "compile_fail: ${stem} ${case} rejected as expected")
endfunction()

foreach(source IN LISTS SOURCES)
  get_filename_component(stem "${source}" NAME_WE)
  if(NOT DEFINED ${stem}_CASES)
    message(FATAL_ERROR "compile_fail: no cases listed for ${source}")
  endif()
  compile(CONTROL)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "compile_fail: the ${stem} control case must build:\n${out}")
  endif()
  message(STATUS "compile_fail: ${stem} CONTROL builds")
  foreach(case IN LISTS ${stem}_CASES)
    expect_error(${case} "${${stem}_${case}}")
  endforeach()
endforeach()
