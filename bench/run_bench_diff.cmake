# CTest driver for the bench_diff perf gate: runs the pinned benches fresh
# (each bench also evaluates its own SHAPE CHECK claims), then diffs their
# BENCH_*.json against the committed baselines.
#
# Invoked as:
#   cmake -DBENCH_EXES=<exe1;exe2> -DBENCH_ARGS=--reps=10 -DPYTHON=...
#         -DDIFF_SCRIPT=... -DBASELINE_DIR=... -DWORK_DIR=...
#         -P run_bench_diff.cmake
#
# A BENCH_EXES entry may carry per-bench arguments after "::" separators
# (e.g. "path/micro_collectives_sweep::--reps=12"), appended after the
# shared BENCH_ARGS — sweeps whose baselines were taken at a different rep
# count than the figure benches declare it here.
#
# Every bench runs and the diff runs even when an earlier step failed; the
# target then fails naming each bench that exited non-zero (1 = a claim
# failed, 2 = bad invocation) with its SHAPE CHECK FAIL lines.  Each
# bench's output is kept in WORK_DIR/<bench>.log (warm pass) and
# WORK_DIR/<bench>.pass0.log (cold pass).

file(MAKE_DIRECTORY ${WORK_DIR})

set(require_args)
set(failure_text "")
foreach(exe ${BENCH_EXES})
  string(REPLACE "::" ";" exe_parts "${exe}")
  list(POP_FRONT exe_parts exe_path)
  get_filename_component(exe_name ${exe_path} NAME)
  # Every bench the gate runs must have produced its JSON (bench name =
  # executable name).
  list(APPEND require_args --require BENCH_${exe_name}.json)
  # Twice: the first (cold) run warms the page cache and allocator, the
  # second overwrites BENCH_*.json with representative wall times.  The
  # cold pass keeps its output in <bench>.pass0.log and fails the gate on
  # any exit but 0 or 1 (a crash, an abort, a bad invocation); its claim
  # verdict (exit 1) is left to the warm pass, whose wall-speedup claims
  # are the representative ones.
  execute_process(
    COMMAND ${exe_path} ${BENCH_ARGS} ${exe_parts}
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE cold_rc
    OUTPUT_FILE ${WORK_DIR}/${exe_name}.pass0.log
    ERROR_FILE ${WORK_DIR}/${exe_name}.pass0.log)
  if(NOT (cold_rc EQUAL 0 OR cold_rc EQUAL 1))
    string(APPEND failure_text
           "\n  ${exe_name} exited ${cold_rc} on the cold pass"
           " (${WORK_DIR}/${exe_name}.pass0.log)")
  endif()
  execute_process(
    COMMAND ${exe_path} ${BENCH_ARGS} ${exe_parts}
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE bench_rc
    OUTPUT_FILE ${WORK_DIR}/${exe_name}.log
    ERROR_FILE ${WORK_DIR}/${exe_name}.log)
  if(NOT bench_rc EQUAL 0)
    string(APPEND failure_text
           "\n  ${exe_name} exited ${bench_rc} (${WORK_DIR}/${exe_name}.log)")
    file(STRINGS ${WORK_DIR}/${exe_name}.log fail_lines
         REGEX "SHAPE CHECK FAIL" ENCODING UTF-8)
    foreach(line ${fail_lines})
      string(APPEND failure_text "\n    ${line}")
    endforeach()
  endif()
endforeach()

# Wall baselines are taken on the reference machine (bench/baselines/
# README.md); a slower host can widen the gate without losing the exact
# deterministic checks (medians, event/handoff/copy counts).
if(DEFINED ENV{MCMPI_BENCH_WALL_TOLERANCE})
  set(wall_tolerance $ENV{MCMPI_BENCH_WALL_TOLERANCE})
else()
  set(wall_tolerance 0.10)
endif()

execute_process(
  COMMAND ${PYTHON} ${DIFF_SCRIPT}
          --baseline ${BASELINE_DIR} --fresh ${WORK_DIR}
          --wall-tolerance ${wall_tolerance}
          ${require_args}
  RESULT_VARIABLE diff_rc)

if(NOT diff_rc EQUAL 0)
  string(APPEND failure_text
         "\n  bench_diff reported a regression (rc=${diff_rc})")
endif()
if(failure_text)
  message(FATAL_ERROR "bench gate failed:${failure_text}")
endif()
