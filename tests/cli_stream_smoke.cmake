# Stream replay smoke test: `aggregate --stream` on a recorded event log
# must report every batch, agree with the batch pipeline where the two
# coincide, and reject malformed logs with the offending line number.
file(MAKE_DIRECTORY ${WORK})

# A marker-free log is one batch, and --rebuild-threshold 0 forces that
# single flush down the full-rebuild path — so the stream result must
# match a batch aggregate of the same three clusterings exactly.
file(WRITE ${WORK}/batch.events
"# figure 1 input as an event log
clustering 0 0 1 1 2 2
clustering 0 1 0 1 2 3
clustering 0 1 0 1 2 2
")
file(WRITE ${WORK}/c1.labels "0 0 1 1 2 2\n")
file(WRITE ${WORK}/c2.labels "0 1 0 1 2 3\n")
file(WRITE ${WORK}/c3.labels "0 1 0 1 2 2\n")

execute_process(COMMAND ${CLI} aggregate --stream ${WORK}/batch.events
                --rebuild-threshold 0 --algorithm agglomerative --refine
                --threads 1 --out ${WORK}/stream.labels
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "stream replay failed (${rc}): ${err}")
endif()
if(NOT err MATCHES "batch 1: 3 events")
  message(FATAL_ERROR "expected a per-batch report line, got: ${err}")
endif()
if(NOT err MATCHES "rebuilt")
  message(FATAL_ERROR "--rebuild-threshold 0 should force a rebuild, "
                      "got: ${err}")
endif()
if(NOT err MATCHES "run outcome = converged")
  message(FATAL_ERROR "expected a converged report line, got: ${err}")
endif()

execute_process(COMMAND ${CLI} aggregate ${WORK}/c1.labels ${WORK}/c2.labels
                ${WORK}/c3.labels --algorithm agglomerative --refine
                --threads 1 --out ${WORK}/batch.labels
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "batch aggregate failed (${rc}): ${err}")
endif()
execute_process(COMMAND ${CLI} eval ${WORK}/batch.labels ${WORK}/stream.labels
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "stream-vs-batch eval failed: ${rc}")
endif()
if(NOT out MATCHES "adjusted rand index:  1.0000")
  message(FATAL_ERROR "stream rebuild and batch aggregate should produce "
                      "identical clusterings, got: ${out}")
endif()

# Multi-batch log exercising weights, missing markers, object appends,
# and folding: with an unreachable threshold the second batch must take
# the warm-repair path (the first flush always rebuilds).
file(WRITE ${WORK}/warm.events
"clustering 0 0 1 1 2 2
clustering weight=2 0 1 0 1 2 3
flush
clustering 0 1 0 1 2 2
object ? 3 2
flush
")
execute_process(COMMAND ${CLI} aggregate --stream ${WORK}/warm.events
                --rebuild-threshold 1e9 --fold --threads 1
                --out ${WORK}/warm.labels
                RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "warm-repair replay failed (${rc}): ${err}")
endif()
if(NOT err MATCHES "batch 2: [0-9]+ events, [0-9]+ pairs touched")
  message(FATAL_ERROR "expected a second batch report, got: ${err}")
endif()
if(NOT err MATCHES "repaired")
  message(FATAL_ERROR "second batch should warm-repair under an "
                      "unreachable threshold, got: ${err}")
endif()
if(NOT err MATCHES "streamed 3 clusterings of 7 objects")
  message(FATAL_ERROR "expected the final stream dimensions, got: ${err}")
endif()
if(NOT err MATCHES "folded 7 objects into")
  message(FATAL_ERROR "--fold should report the signature count, "
                      "got: ${err}")
endif()
execute_process(COMMAND ${CLI} eval ${WORK}/warm.labels ${WORK}/warm.labels
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "adjusted rand index:  1.0000")
  message(FATAL_ERROR "streamed labels should be a valid clustering "
                      "file, got: ${out}")
endif()

# Malformed logs are InvalidArgument (exit 2) naming the 1-based line.
file(WRITE ${WORK}/bad.events "clustering 0 0\nbogus 1 2\n")
execute_process(COMMAND ${CLI} aggregate --stream ${WORK}/bad.events
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "malformed log should exit 2, got ${rc}")
endif()
if(NOT err MATCHES "line 2")
  message(FATAL_ERROR "parse error should name line 2, got: ${err}")
endif()

# Flag validation: a negative drift bound is rejected.
execute_process(COMMAND ${CLI} aggregate --stream ${WORK}/batch.events
                --rebuild-threshold -0.5
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "--rebuild-threshold -0.5 should exit 2, got ${rc}")
endif()

# A flag or argument stream mode does not use is an error, not silently
# ignored: batch-only input and seeding flags, a bad --missing policy,
# and positional label files all exit 2.
foreach(bad "--missing;bogus" "--seed;3" "--sample;5"
            "--csv;${WORK}/x.csv" "${WORK}/c1.labels")
  execute_process(COMMAND ${CLI} aggregate --stream ${WORK}/batch.events
                  ${bad}
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "stream with ${bad} should exit 2, got ${rc}")
  endif()
endforeach()
