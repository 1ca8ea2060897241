# Smoke test of one workload: runs bench_e2e --smoke untraced and traced,
# and checks that each result line parses as JSON, reports a correct run
# with no failed op, and that the traced run wrote a span tree.
#   cmake -DBENCH=... -DWORKLOAD=... -DWORK=... -P smoke.cmake
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

function(check_result output expected_metric)
  string(REGEX REPLACE "\n$" "" output "${output}")
  string(REGEX REPLACE ".*\n" "" last_line "${output}")
  string(JSON correct ERROR_VARIABLE err GET "${last_line}" correct)
  if(err)
    message(FATAL_ERROR "result line is not JSON (${err}): ${last_line}")
  endif()
  string(JSON failed GET "${last_line}" failed)
  if(NOT correct STREQUAL "ON" OR NOT failed EQUAL 0)
    message(FATAL_ERROR "incorrect run or failed ops: ${last_line}")
  endif()
  string(JSON unit GET "${last_line}" metrics ${expected_metric} unit)
  string(JSON value GET "${last_line}" metrics ${expected_metric} value)
  message(STATUS "${WORKLOAD}: ${expected_metric} = ${value} ${unit}")
endfunction()

execute_process(COMMAND ${BENCH} --workload ${WORKLOAD} --seed 1 --smoke
                        --dir ${WORK}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "untraced smoke exited ${rc}: ${err}")
endif()
check_result("${out}" setup_s)

execute_process(COMMAND ${BENCH} --workload ${WORKLOAD} --seed 1 --smoke
                        --dir ${WORK} --trace ${WORK}/trace.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "traced smoke exited ${rc}: ${err}")
endif()
check_result("${out}" trace.self_time_share)
file(READ ${WORK}/trace.json trace)
string(JSON spans LENGTH "${trace}" spans)
string(JSON root_parent GET "${trace}" spans 0 parent)
if(spans LESS 2 OR NOT root_parent EQUAL -1)
  message(FATAL_ERROR "trace holds no span tree: ${spans} spans")
endif()
