# Local query smoke test: the `query --local` surface end to end. The
# load-bearing check is bit-identity — `query --local --all` must write
# byte-for-byte the label file `aggregate --algorithm pivot
# --pivot-repetitions 1` writes under the same seed (the oracle
# simulates exactly that run), unfolded and folded alike. Point and pair
# queries, answer plumbing, and flag validation ride along.
file(MAKE_DIRECTORY ${WORK})

file(WRITE ${WORK}/c1.labels "0 0 1 1 2 2 0 0 1 1 2 2\n")
file(WRITE ${WORK}/c2.labels "0 0 1 1 1 2 0 0 1 1 1 2\n")
file(WRITE ${WORK}/c3.labels "0 0 0 1 2 2 0 0 0 1 2 2\n")
set(FILES ${WORK}/c1.labels ${WORK}/c2.labels ${WORK}/c3.labels)

# The global reference: one CC-PIVOT repetition, pinned seed.
execute_process(COMMAND ${CLI} aggregate --algorithm pivot
                --pivot-repetitions 1 --seed 7 ${FILES}
                --out ${WORK}/global.labels
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pivot aggregate failed (${rc}): ${err}")
endif()

# --all materializes the same labeling byte-for-byte.
execute_process(COMMAND ${CLI} query --local --all --seed 7 ${FILES}
                --out ${WORK}/local.labels
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "query --local --all failed (${rc}): ${err}")
endif()
if(NOT err MATCHES "local oracle over 3 clusterings of 12 objects")
  message(FATAL_ERROR "expected the oracle header line, got: ${err}")
endif()
file(READ ${WORK}/global.labels global_labels)
file(READ ${WORK}/local.labels local_labels)
if(NOT global_labels STREQUAL local_labels)
  message(FATAL_ERROR "local --all must be bit-identical to the global "
                      "pivot run: '${global_labels}' vs "
                      "'${local_labels}'")
endif()

# Folded: same pin against the folded global run (the instance has
# duplicate label tuples, so the fold is non-trivial).
execute_process(COMMAND ${CLI} aggregate --algorithm pivot
                --pivot-repetitions 1 --fold --seed 7 ${FILES}
                --out ${WORK}/global_fold.labels
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "folded pivot aggregate failed (${rc}): ${err}")
endif()
if(NOT err MATCHES "folded 12 objects into 5 signatures")
  message(FATAL_ERROR "expected a non-trivial fold, got: ${err}")
endif()
execute_process(COMMAND ${CLI} query --local --fold --all --seed 7 ${FILES}
                --out ${WORK}/local_fold.labels
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "folded query --local failed (${rc}): ${err}")
endif()
if(NOT err MATCHES "folded to 5 signatures")
  message(FATAL_ERROR "expected the folded header line, got: ${err}")
endif()
file(READ ${WORK}/global_fold.labels global_fold)
file(READ ${WORK}/local_fold.labels local_fold)
if(NOT global_fold STREQUAL local_fold)
  message(FATAL_ERROR "folded local --all must match the folded global "
                      "run: '${global_fold}' vs '${local_fold}'")
endif()

# Point query: stdout is the bare canonical cluster id, diagnostics on
# stderr.
execute_process(COMMAND ${CLI} query --local --of 0 --seed 7 ${FILES}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "query --of failed (${rc}): ${err}")
endif()
if(NOT out MATCHES "^[0-9]+\n$")
  message(FATAL_ERROR "--of should print a bare cluster id, got: ${out}")
endif()
if(NOT err MATCHES "object 0 -> pivot [0-9]+ \\(outcome = converged")
  message(FATAL_ERROR "expected the per-query report line, got: ${err}")
endif()

# Pair queries: objects 0 and 6 carry identical label tuples, so they
# are in the same cluster of any simulated run; 'same'/'different' is
# the whole stdout contract.
execute_process(COMMAND ${CLI} query --local --pair 0,6 --seed 7 ${FILES}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
if(NOT rc EQUAL 0 OR NOT out STREQUAL "same\n")
  message(FATAL_ERROR "--pair 0,6 should answer 'same', got: ${out}")
endif()
execute_process(COMMAND ${CLI} query --local --pair 0,5 --seed 7 ${FILES}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_QUIET)
if(NOT rc EQUAL 0 OR NOT out MATCHES "^(same|different)\n$")
  message(FATAL_ERROR "--pair should answer same/different, got: ${out}")
endif()

# Flag validation: every malformed invocation is InvalidArgument (2).
execute_process(COMMAND ${CLI} query ${FILES}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "query without --local should exit 2, got ${rc}")
endif()
execute_process(COMMAND ${CLI} query --local ${FILES}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "query without a selector should exit 2, got ${rc}")
endif()
execute_process(COMMAND ${CLI} query --local --of 99 --seed 7 ${FILES}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "out of range")
  message(FATAL_ERROR "--of 99 should exit 2 naming the range, got "
                      "${rc}: ${err}")
endif()
execute_process(COMMAND ${CLI} query --local --pair 0 ${FILES}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--pair without a comma should exit 2, got ${rc}")
endif()
execute_process(COMMAND ${CLI} query --local --of x ${FILES}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--of x should exit 2, got ${rc}")
endif()
execute_process(COMMAND ${CLI} query --local --all --of 0 --seed 7 ${FILES}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "two selectors should exit 2, got ${rc}")
endif()
execute_process(COMMAND ${CLI} query --local --all --backend dense --fold
                --seed 7 ${FILES}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--fold with --backend dense should exit 2, "
                      "got ${rc}")
endif()
# The adjudication table is always on: --memo is no flag of the CLI.
execute_process(COMMAND ${CLI} query --local --of 0 --memo 4 ${FILES}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown flag --memo")
  message(FATAL_ERROR "--memo should exit 2 as an unknown flag, got "
                      "${rc}: ${err}")
endif()

# A boolean selector never takes the next argument: `--all FILES` reads
# all three label files and stays bit-identical to the global run.
execute_process(COMMAND ${CLI} query --local --seed 7 --all ${FILES}
                --out ${WORK}/local_first.labels
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT err MATCHES "over 3 clusterings")
  message(FATAL_ERROR "--all before the label files should read all "
                      "three, got ${rc}: ${err}")
endif()
file(READ ${WORK}/local_first.labels local_first)
if(NOT global_labels STREQUAL local_first)
  message(FATAL_ERROR "--all FILES must match the global pivot run: "
                      "'${global_labels}' vs '${local_first}'")
endif()
