# Runs ${PROBE} twice in fresh processes; fails unless both runs succeed and
# print the same, non-empty output.
foreach(run a b)
  execute_process(COMMAND ${PROBE} OUTPUT_VARIABLE out_${run}
                  RESULT_VARIABLE rc_${run})
  if(NOT rc_${run} EQUAL 0)
    message(FATAL_ERROR "${PROBE} exited with ${rc_${run}}")
  endif()
endforeach()
if(out_a STREQUAL "" OR NOT out_a STREQUAL out_b)
  message(FATAL_ERROR "runs differ:\n${out_a}---\n${out_b}")
endif()
message(STATUS "both runs:\n${out_a}")
