# Memory-capped CLI smoke: scoring two partitions must take memory
# linear in n, however many clusters they have. The inputs are 40 000
# objects as all singletons and as consecutive pairs (d = 20 000), where
# a dense ka x kb contingency table would ask for 6.4 GB. `eval` and
# `aggregate --algorithm best` (which only scores) run under a 3 GB
# virtual-memory limit that `ulimit` sets on the CLI's own process.

file(MAKE_DIRECTORY ${WORK})
foreach(i RANGE 19999)
  math(EXPR even "2 * ${i}")
  math(EXPR odd "${even} + 1")
  string(APPEND singletons "${even}\n${odd}\n")
  string(APPEND pairs "${i}\n${i}\n")
endforeach()
file(WRITE ${WORK}/singletons.labels "${singletons}")
file(WRITE ${WORK}/pairs.labels "${pairs}")

set(capped sh -c "ulimit -v 3000000 && exec \"$@\"" sh ${CLI})
execute_process(COMMAND ${capped} eval ${WORK}/singletons.labels
                        ${WORK}/pairs.labels
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "capped eval failed: ${rc}\n${out}${err}")
endif()
if(NOT out MATCHES "disagreement d\\(a,b\\):  20000\n")
  message(FATAL_ERROR "capped eval should report d = 20000, got: ${out}")
endif()

execute_process(COMMAND ${capped} aggregate ${WORK}/singletons.labels
                        ${WORK}/pairs.labels --algorithm best
                        --out ${WORK}/best.labels
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "capped best failed: ${rc}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "D\\(C\\) = 20000\\.0")
  message(FATAL_ERROR "capped best should score D(C) = 20000, got: "
                      "${out}${err}")
endif()
