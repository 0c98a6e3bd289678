# Passes only if every bench in BENCHES rejects each malformed invocation
# with exit code 2 and the flag parser's message: a bare value after a
# flag, a non-integer value, and an unknown flag (the arguments of one
# invocation are comma-separated).  Exit 1 belongs to a failed SHAPE CHECK
# claim, and an abort is neither.
#
#   cmake -DBENCHES=<exe1;exe2> -P bench_bad_flag_test.cmake

set(invocations "--reps,3" "--reps=abc" "--bogus=1")
set(messages "expected --key\\[=value\\], got `3`"
             "--reps expects an integer, got `abc`"
             "unknown flag --bogus")

foreach(bench ${BENCHES})
  foreach(index RANGE 2)
    list(GET invocations ${index} args)
    list(GET messages ${index} expected)
    string(REPLACE "," ";" args "${args}")
    execute_process(COMMAND ${bench} ${args}
                    RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
      message(FATAL_ERROR "${bench} ${args}: exit ${rc}, expected 2\n${out}${err}")
    endif()
    if(NOT "${out}${err}" MATCHES "flags: ${expected}")
      message(FATAL_ERROR
              "${bench} ${args}: message `${err}` lacks `flags: ${expected}`")
    endif()
  endforeach()
endforeach()
